package serving_test

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

// TestLoopConcurrentOpen is the concurrency contract of the session
// API under the real-time driver: many goroutines call Open against one
// Loop serving a single engine (the engine itself is single-goroutine),
// every session completes with its own request, and the engine leaks
// nothing. Run under -race this also proves the loop's lock actually
// covers the engine.
func TestLoopConcurrentOpen(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Instances: 1,
		Engine: serving.Config{
			Model: synth.Llama3_8B, Cluster: gpusim.NewCluster(gpusim.L40(), 1),
			Traits: baselines.TraitsVLLM, Seed: 7,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := httpapi.NewLoop(c, httpapi.LoopConfig{})
	const n = 24
	var wg sync.WaitGroup
	sessions := make([]*serving.Session, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := l.Open(context.Background(),
				workload.Request{PromptLen: 128 + 16*i, GenLen: 8 + i}, nil)
			sessions[i], errs[i] = s, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	for i, s := range sessions {
		select {
		case <-s.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("session %d never completed", i)
		}
		cp, err := s.Completion()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if cp.Req.GenLen != 8+i {
			t.Fatalf("session %d: wrong completion %+v", i, cp)
		}
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if m.Opened != n || m.Completed != n || m.Driver.OpenSessions != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}
