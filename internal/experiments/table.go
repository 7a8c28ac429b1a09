// Package experiments contains one harness per table and figure of the
// paper's evaluation (§7). Each harness runs the relevant modules and
// returns formatted tables whose rows/series correspond to what the paper
// plots; cmd/diffkv-bench prints them and TestParallelMatchesSequential
// runs every one in fast mode.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a formatted result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Num returns the number in column col of the row whose first cell is
// row, as rendered and without its unit: "23.1%" reads 23.1 and "5103x"
// reads 5103. A missing or repeated row, a missing column or a cell that
// is not a number is an error.
func (t *Table) Num(row, col string) (float64, error) {
	c, err := t.cell(row, col)
	if err != nil {
		return 0, err
	}
	return parseNum(c)
}

// AccMem reads a composite "acc (mem%)" cell, such as "76.3 (23.1%)",
// into its accuracy and its memory percentage.
func (t *Table) AccMem(row, col string) (acc, mem float64, err error) {
	c, err := t.cell(row, col)
	if err != nil {
		return 0, 0, err
	}
	a, m, ok := strings.Cut(c, " (")
	m, closed := strings.CutSuffix(m, ")")
	if !ok || !closed {
		return 0, 0, fmt.Errorf("%s: cell %q is not acc (mem%%)", t.Title, c)
	}
	if acc, err = parseNum(a); err != nil {
		return 0, 0, err
	}
	mem, err = parseNum(m)
	return acc, mem, err
}

// cell returns the text of column col in the one row whose first cell is
// row.
func (t *Table) cell(row, col string) (string, error) {
	j, err := t.column(col)
	if err != nil {
		return "", err
	}
	var found []string
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == row {
			if found != nil {
				return "", fmt.Errorf("%s: row %q is not unique", t.Title, row)
			}
			found = r
		}
	}
	if found == nil {
		return "", fmt.Errorf("%s: no row %q", t.Title, row)
	}
	if j >= len(found) {
		return "", fmt.Errorf("%s: row %q has no column %q", t.Title, row, col)
	}
	return found[j], nil
}

// column returns the index of the column headed col.
func (t *Table) column(col string) (int, error) {
	for i, h := range t.Header {
		if h == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%s: no column %q", t.Title, col)
}

// parseNum reads a rendered number, dropping a trailing "%" or "x".
func parseNum(c string) (float64, error) {
	s := strings.TrimSuffix(strings.TrimSuffix(c, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q is not a number", c)
	}
	return v, nil
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Opts tune experiment cost.
type Opts struct {
	// Reps is the number of repetitions averaged (paper: 5; default 3).
	Reps int
	// Fast reduces sweep resolution and sample counts for benchmarks. It
	// also skips host wall-clock measurements (abl-scan) so fast-mode
	// output is fully deterministic at a fixed seed.
	Fast bool
	// Seed is the root seed.
	Seed uint64
	// Workers bounds the worker pool that independent cells, configs and
	// sequences fan out across: 0 means runtime.GOMAXPROCS(0). It does not
	// reach a loop whose item is one synthetic head: those always fan out
	// on the head pool (GOMAXPROCS workers), as a core.Engine sequence's
	// sampled heads do. The head loops are evalBaseline's (tab1, tab2,
	// tab3, fig11), uniformErr's (fig8), fig9's head build and per-fraction
	// error pass, fig2's sequences, fig4's and fig5's heads and
	// abl-levels' reps. Results are bit-identical for every value (see
	// mathx.ForEach).
	Workers int
}

func (o *Opts) norm() {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
