package experiments

import (
	"fmt"
	"path/filepath"
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
	for _, row := range tables[0].Rows {
		sp := row[len(row)-1]
		if !strings.HasSuffix(sp, "x") {
			t.Fatalf("speedup cell %q", sp)
		}
		if len(sp) < 4 { // at least 3 digits + x
			t.Fatalf("speedup %q below two orders of magnitude", sp)
		}
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
