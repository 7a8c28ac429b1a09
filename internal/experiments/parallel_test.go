package experiments

import "testing"

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
