package experiments

import (
	"strings"
	"testing"
)

func renderAll(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWorkerPoolRaceSmoke drives the real fan-out paths (attention reps,
// core-engine sequences, serving grids, cluster cells) with a forced
// multi-worker pool. It stays enabled in -short mode so the CI race step
// (`go test -race -short ./internal/experiments/...`) exercises the worker
// pool without paying for the full suite under the race detector.
func TestWorkerPoolRaceSmoke(t *testing.T) {
	for _, id := range []string{"fig2", "fig4", "fig5", "fig8", "fig16", "abl-levels", "abl-window", "cluster-routing", "offload"} {
		if _, err := Run(id, Opts{Fast: true, Reps: 2, Seed: 11, Workers: 8}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// TestParallelMatchesSequential asserts the acceptance criterion of the
// multi-core harness: for every registered experiment ID, an 8-worker
// harness pool produces byte-identical Table output to a 1-worker pool at a
// fixed seed. Workers bounds only the harness pool; the sampled heads of
// each core.Engine sequence fan out in both runs.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			seqTables, err := Run(id, Opts{Fast: true, Reps: 1, Seed: 42, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parTables, err := Run(id, Opts{Fast: true, Reps: 1, Seed: 42, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			seq, par := renderAll(seqTables), renderAll(parTables)
			if seq != par {
				t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
		})
	}
}
