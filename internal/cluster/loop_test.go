package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
	"diffkv/internal/workload"
)

// TestClusterLoopServesConcurrently drives a cluster through the
// always-on Loop: Opens from many goroutines land on routed instances,
// every session completes, and the loop's metrics see the fleet.
func TestClusterLoopServesConcurrently(t *testing.T) {
	c, err := New(sessionCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	l := serving.NewLoop(c, serving.LoopConfig{})
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

// TestClusterLoopSheds: admission control's ErrAllSaturated passes
// through Loop.Open unwrapped (the gateway maps it to HTTP 503). The
// loop is paced far into the future so queued requests cannot drain
// between Opens, making the saturation point deterministic.
func TestClusterLoopSheds(t *testing.T) {
	cfg := sessionCfg(1)
	cfg.MaxQueueDepth = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := serving.NewLoop(c, serving.LoopConfig{TimeScale: 10})
	ctx := context.Background()
	// arrivals a simulated minute out: the paced loop executes nothing,
	// so both Opens sit in the one instance's admission queue
	r := workload.Request{ArrivalUs: 60e6, PromptLen: 128, GenLen: 8}
	for i := 0; i < cfg.MaxQueueDepth; i++ {
		if _, err := l.Open(ctx, r, nil); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, err := l.Open(ctx, r, nil); !errors.Is(err, ErrAllSaturated) {
		t.Fatalf("saturated Open: got %v, want ErrAllSaturated", err)
	}
	if got := l.Metrics().Driver.Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	ctxT, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := l.Shutdown(ctxT); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with queued future work: %v", err)
	}
}

// TestLoopTelemetrySampling is the concurrency contract of the
// telemetry attachment: a Loop over a one-instance cluster steps the
// cluster, which samples the center between steps and records every
// completion, while the gateway-side surface (Snapshot, LatencyHists)
// is polled from other goroutines. Under -race this proves the center's
// lock covers both sides; functionally it proves no completion is lost
// and occupancy is sampled.
func TestLoopTelemetrySampling(t *testing.T) {
	tc := telemetry.New(telemetry.Config{
		// sample every simulated 10ms so a short run still collects
		// plenty of ticks
		SampleIntervalUs: 1e4,
		SLOs:             []telemetry.SLOSpec{{Metric: "ttft", TargetSec: 10}},
	})
	cfg := sessionCfg(1)
	cfg.Telemetry = tc
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := serving.NewLoop(c, serving.LoopConfig{})

	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tc.Snapshot()
			_ = snap.Cluster.Headroom
			tc.LatencyHists()
			tc.SLOStatuses()
		}
	}()

	const n = 16
	var wg sync.WaitGroup
	sessions := make([]*serving.Session, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := l.Open(context.Background(),
				workload.Request{PromptLen: 128 + 16*i, GenLen: 8 + i}, nil)
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
	for i, s := range sessions {
		select {
		case <-s.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("session %d never completed", i)
		}
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	poll.Wait()

	snap := tc.Snapshot()
	if snap.Samples == 0 {
		t.Fatal("cluster never sampled the center")
	}
	if got := snap.Latency["e2e"].Count; got != n {
		t.Fatalf("e2e completions recorded = %d, want %d", got, n)
	}
	if got := snap.Latency["ttft"].Count; got != n {
		t.Fatalf("ttft completions recorded = %d, want %d", got, n)
	}
	if len(snap.Instances) != 1 || snap.Instances[0].Inst != 1 {
		t.Fatalf("instances: %+v", snap.Instances)
	}
	// the engine has a token budget, so capacity must be known and
	// headroom computable
	if snap.Instances[0].CapacityTokens <= 0 {
		t.Fatalf("capacity = %g, want > 0", snap.Instances[0].CapacityTokens)
	}
}
