package experiments

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Notes:  "a note",
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "note: a note") {
		t.Fatal("missing note")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// title + header + separator + 2 rows + note
	if len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestOptsDefaults(t *testing.T) {
	var o Opts
	o.norm()
	if o.Reps != 3 || o.Seed != 42 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestRegistryComplete(t *testing.T) {
	// every paper artifact, the ablations, and the cluster + offload +
	// chaos + disagg experiments
	if len(Registry) != 17+7+4 {
		t.Fatalf("registry has %d entries", len(Registry))
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
	if _, err := Run("bogus", Opts{}); err == nil {
		t.Fatal("expected unknown-id error")
	}
	// one checked-in table per ID (TestParallelMatchesSequential), and
	// no file without an ID
	files, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range files {
		id, ok := strings.CutSuffix(filepath.Base(f), ".md")
		if _, registered := Registry[id]; !ok || !registered {
			t.Errorf("stray file %s: no experiment ID %q", f, id)
		}
		have[id] = true
	}
	for _, id := range ids {
		if !have[id] {
			t.Errorf("%s has no testdata/%s.md", id, id)
		}
	}
}

func TestSeedOfDistinct(t *testing.T) {
	a := seedOf("model-a", "bench")
	b := seedOf("model-b", "bench")
	if a == b {
		t.Fatal("seed collision")
	}
}

func TestFig13SpeedupOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Run("fig13", Opts{Reps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// every speedup entry must be >= 100x (paper: up to 3 orders)
	verdicts := Registry["fig13"].Claims(tables)
	if len(verdicts) != len(tables[0].Rows) {
		t.Fatalf("%d claims for %d Fig 13a rows", len(verdicts), len(tables[0].Rows))
	}
	for _, v := range verdicts {
		if !v.Held {
			t.Errorf("%s: margin %+g, err %v", v.Claim, v.Margin, v.Err)
		}
	}
}

func TestTableNum(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"k", "acc", "mem", "both", "sp"}}
	tbl.AddRow("a", "76.3", "23.1%", "76.3 (23.1%)", "5103x")
	tbl.AddRow("b", "n/a", "", "76.3", "-")
	tbl.AddRow("c", "1", "1", "1", "1")
	tbl.AddRow("c", "2", "2", "2", "2")
	for col, want := range map[string]float64{"acc": 76.3, "mem": 23.1, "sp": 5103} {
		if got, err := tbl.Num("a", col); err != nil || got != want {
			t.Errorf("Num(a, %s) = %v, %v; want %v", col, got, err, want)
		}
	}
	if acc, mem, err := tbl.AccMem("a", "both"); err != nil || acc != 76.3 || mem != 23.1 {
		t.Errorf("AccMem(a, both) = %v, %v, %v", acc, mem, err)
	}
	for _, bad := range [][2]string{{"b", "acc"}, {"b", "mem"}, {"b", "sp"}, {"a", "nope"}, {"z", "acc"}, {"c", "acc"}, {"a", "both"}} {
		if _, err := tbl.Num(bad[0], bad[1]); err == nil {
			t.Errorf("Num(%s, %s) read a number", bad[0], bad[1])
		}
	}
	if _, _, err := tbl.AccMem("b", "both"); err == nil {
		t.Error("AccMem read a cell without (mem%)")
	}
}

// A claim fails on a table that breaks it, and a cell it cannot read is
// an error, not a pass.
func TestClaimsCatchViolations(t *testing.T) {
	fig13 := func(sp string) []*Table {
		tbl := &Table{Title: "Fig 13a: demo", Header: []string{"phase", "batch", "speedup"}}
		tbl.AddRow("prompt", "8", "100x")
		tbl.AddRow("generation", "8", sp)
		return []*Table{tbl}
	}
	v := fig13Claims(fig13("99x"))
	if !v[0].Held || v[0].Margin != 0 || v[1].Held || v[1].Margin != -1 {
		t.Fatalf("100x and 99x: %+v", v)
	}
	if v := fig13Claims(fig13("fast")); v[1].Held || v[1].Err == nil {
		t.Fatalf("unreadable speedup: %+v", v[1])
	}
	tab1 := &Table{Title: "Table 1: demo", Header: []string{"benchmark", "FP16", "DiffKV(mem)"}}
	tab1.AddRow("GSM8K", "76.3", "75.3 (17.6%)")
	tab1.AddRow("MATH", "28.1", "27.0 (37.1%)")
	var held []bool
	for _, v := range table1Claims([]*Table{tab1}) {
		held = append(held, v.Held)
	}
	if want := []bool{true, true, false, false}; !slices.Equal(held, want) {
		t.Fatalf("table1Claims held %v, want %v", held, want)
	}
}

func TestDynamicBeatsStaticSparsity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Run("fig9", Opts{Fast: true, Reps: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// in each panel, dynamic accuracy >= static accuracy at the 50% point
	wins, total := 0, 0
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			if row[0] != "50.0%" {
				continue
			}
			total++
			var dyn, stat float64
			if _, err := sscan(row[1], &dyn); err != nil {
				t.Fatal(err)
			}
			if _, err := sscan(row[2], &stat); err != nil {
				t.Fatal(err)
			}
			if dyn >= stat {
				wins++
			}
		}
	}
	if total == 0 {
		t.Fatal("no 50% rows found")
	}
	if wins*2 < total {
		t.Fatalf("dynamic sparsity won only %d of %d panels", wins, total)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
