package experiments_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"diffkv/internal/experiments"
	"diffkv/internal/report"
)

// regenerate is the command whose stdout is testdata/<id>.md.
func regenerate(id string) string {
	return "go run ./cmd/diffkv-bench -exp " + id + " -fast -reps 1 -workers 1 -format markdown > internal/experiments/testdata/" + id + ".md"
}

func render(t *testing.T, tables []*experiments.Table) string {
	t.Helper()
	var b strings.Builder
	if err := report.Write(&b, tables, report.FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, with both lines.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}

// TestParallelMatchesSequential runs every registered experiment ID once,
// fast at seed 42 on an 8-worker harness pool, and requires its markdown
// rendering to equal testdata/<id>.md byte for byte. Each file is the
// -workers 1 output of diffkv-bench, so the check is both a pinned table
// and parallel == sequential. The files hold on amd64, where GOAMD64=v1
// never fuses a multiply-add (DESIGN.md §8); elsewhere the test compares a
// 1-worker run with the 8-worker one instead. Every table must also be
// non-empty and rectangular, and every claim registered for its ID must
// hold on it.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pinned := runtime.GOARCH == "amd64"
	if !pinned {
		t.Logf("GOARCH=%s may fuse multiply-adds: comparing Workers 1 against Workers 8 instead of testdata", runtime.GOARCH)
	}
	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			tables, err := experiments.Run(id, experiments.Opts{Fast: true, Reps: 1, Seed: 42, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("empty table %q", tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Fatalf("ragged row in %q: %v", tbl.Title, row)
					}
				}
			}
			if claims := experiments.Registry[id].Claims; claims != nil {
				verdicts := claims(tables)
				if len(verdicts) == 0 {
					t.Error("no claim checked")
				}
				for _, v := range verdicts {
					if !v.Held {
						t.Errorf("claim failed: %s: margin %+g, err %v", v.Claim, v.Margin, v.Err)
					}
				}
			}
			got := render(t, tables)
			var want string
			if pinned {
				b, err := os.ReadFile(filepath.Join("testdata", id+".md"))
				if err != nil {
					t.Fatal(err)
				}
				want = string(b)
			} else {
				seq, err := experiments.Run(id, experiments.Opts{Fast: true, Reps: 1, Seed: 42, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				want = render(t, seq)
			}
			if got != want {
				n, gl, wl := firstDiff(got, want)
				t.Fatalf("%s differs from its -workers 1 table at line %d:\n  got:  %q\n  want: %q\nIf the change is intended, regenerate from the repository root:\n  %s",
					id, n, gl, wl, regenerate(id))
			}
		})
	}
}
