package cluster_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/httpapi"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// TestClusterLoopServesConcurrently drives a two-instance cluster
// through the always-on Loop: Opens from many goroutines land on routed
// instances, every session completes, auto-assigned IDs are fleet-unique,
// and the loop's metrics see the fleet.
func TestClusterLoopServesConcurrently(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Instances: 2,
		Engine: serving.Config{
			Model:   synth.Llama3_8B,
			Cluster: gpusim.NewCluster(gpusim.L40(), 1),
			Traits:  baselines.TraitsVLLM,
		},
		Policy: cluster.PolicyRoundRobin,
		Seed:   17,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := httpapi.NewLoop(c, httpapi.LoopConfig{})
	const n = 12
	var wg sync.WaitGroup
	sessions := make([]*serving.Session, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := l.Open(context.Background(),
				workload.Request{PromptLen: 256, GenLen: 16}, nil)
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			sessions[i] = s
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ids := map[int]bool{}
	for i, s := range sessions {
		select {
		case <-s.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("session %d never completed", i)
		}
		// auto-assigned IDs must be fleet-unique: engines assign their
		// own ranges independently, so the cluster assigns before routing
		if ids[s.ID()] {
			t.Fatalf("duplicate auto-assigned request ID %d across instances", s.ID())
		}
		ids[s.ID()] = true
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if m.Completed != n || m.Driver.Instances != 2 || m.Driver.OpenSessions != 0 {
		t.Fatalf("loop metrics: %+v", m)
	}
	if cm := c.Metrics(); cm.Completed != n || cm.Stuck() != 0 {
		t.Fatalf("cluster metrics: completed %d stuck %d", cm.Completed, cm.Stuck())
	}
}
