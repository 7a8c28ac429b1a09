// Package experiments contains one harness per table and figure of the
// paper's evaluation (§7). Each harness runs the relevant modules and
// returns formatted tables whose rows/series correspond to what the paper
// plots; cmd/diffkv-bench prints them and TestParallelMatchesSequential
// runs every one in fast mode.
package experiments

import (
	"fmt"
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
	// Workers bounds the worker pool independent reps/configs fan out
	// across: 0 means runtime.GOMAXPROCS(0). It does not reach inside a
	// core.Engine sequence, whose sampled heads always fan out. Results
	// are bit-identical for every value (see mathx.ForEach).
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
