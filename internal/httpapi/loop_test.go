package httpapi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"diffkv/internal/cluster"
	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
	"diffkv/internal/workload"
)

// TestLoopMatchesStepDriven pins loop determinism: the same request
// stream produces bit-identical completion timestamps whether an engine
// is driven by the caller-owned Submit/Step shims or served as a
// one-instance cluster by a paced background Loop. Every session is
// opened before the loop starts, so all of them land before the loop
// executes anything — the exact setup a batch Submit models.
func TestLoopMatchesStepDriven(t *testing.T) {
	reqs := make([]workload.Request, 8)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: 300 + i, ArrivalUs: 1e5 + float64(i)*1e4,
			PromptLen: 256 + 32*i, GenLen: 16 + 2*i,
		}
	}

	// reference: the caller-driven Submit/Step shims
	ref, err := serving.NewEngine(traitsCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]serving.Completion{}
	for _, r := range reqs {
		ref.Submit(r)
	}
	for ref.HasWork() {
		comps, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range comps {
			want[cp.Req.ID] = cp
		}
	}
	if len(want) != len(reqs) {
		t.Fatalf("reference run completed %d of %d", len(want), len(reqs))
	}

	// loop-driven: every session is opened on the cluster before the loop
	// that then owns it starts, so no Open can land after a step however
	// slowly the test runs; TimeScale 1e-3 paces the first step (at 1e5
	// us) ~100ms of wall time out, so the loop's pacing path runs too
	c, err := cluster.New(cluster.Config{Instances: 1, Engine: traitsCfg(9), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*serving.Session
	for _, r := range reqs {
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	l := startLoop(t, c, LoopConfig{TimeScale: 1e-3})
	for _, s := range sessions {
		select {
		case <-s.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("session %d never completed", s.ID())
		}
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		cp, err := s.Completion()
		if err != nil {
			t.Fatal(err)
		}
		w := want[s.ID()]
		if cp.FirstTokenUs != w.FirstTokenUs || cp.DoneUs != w.DoneUs {
			t.Fatalf("request %d: loop-driven timestamps diverge: got (%v, %v) want (%v, %v)",
				s.ID(), cp.FirstTokenUs, cp.DoneUs, w.FirstTokenUs, w.DoneUs)
		}
	}
}

// TestLoopShutdownDrains: Shutdown finishes in-flight sessions, then
// rejects new Opens with ErrLoopShutdown.
func TestLoopShutdownDrains(t *testing.T) {
	l := engineLoop(t, traitsCfg(11), LoopConfig{})
	s, err := l.Open(context.Background(), workload.Request{PromptLen: 512, GenLen: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("Shutdown returned before the in-flight session drained")
	}
	if _, err := s.Completion(); err != nil {
		t.Fatalf("session should have completed: %v", err)
	}
	if _, err := l.Open(context.Background(), workload.Request{PromptLen: 64, GenLen: 8}, nil); !errors.Is(err, ErrLoopShutdown) {
		t.Fatalf("Open after Shutdown: got %v, want ErrLoopShutdown", err)
	}
	// idempotent, and the terminated loop reports itself stopped
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); !m.Stopped || !m.Draining {
		t.Fatalf("drained loop must report Draining and Stopped: %+v", m)
	}
}

// TestLoopShutdownDeadline: an expired context stops the loop between
// steps with work still queued, returning the context's error.
func TestLoopShutdownDeadline(t *testing.T) {
	// paced far in the future so the queued request cannot complete
	l := engineLoop(t, traitsCfg(13), LoopConfig{TimeScale: 10})
	if _, err := l.Open(context.Background(),
		workload.Request{ArrivalUs: 60e6, PromptLen: 256, GenLen: 512}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown: got %v, want deadline exceeded", err)
	}
	select {
	case <-l.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("loop goroutine did not exit after forced shutdown")
	}
}

// TestLoopCancelViaContext: cancelling an Open context reaps the
// session from the loop (even while the cluster is otherwise idle) and
// frees its state.
func TestLoopCancelViaContext(t *testing.T) {
	l := engineLoop(t, traitsCfg(15), LoopConfig{TimeScale: 10})
	ctx, cancel := context.WithCancel(context.Background())
	// arrival far in the future: the paced loop holds the request queued
	s, err := l.Open(ctx, workload.Request{ArrivalUs: 60e6, PromptLen: 256, GenLen: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context cancellation never reaped the session")
	}
	if _, err := s.Completion(); !errors.Is(err, serving.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Driver.Cancelled != 1 || m.Driver.OpenSessions != 0 {
		t.Fatalf("metrics after cancel: %+v", m.Driver)
	}
}

// TestLoopSheds: admission control's ErrAllSaturated passes through
// Loop.Open unwrapped (the gateway maps it to HTTP 503). The loop is
// paced far into the future so queued requests cannot drain between
// Opens, making the saturation point deterministic.
func TestLoopSheds(t *testing.T) {
	const maxQueue = 2
	c, err := cluster.New(cluster.Config{
		Instances:     1,
		Engine:        traitsCfg(17),
		MaxQueueDepth: maxQueue,
		Seed:          17,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(c, LoopConfig{TimeScale: 10})
	ctx := context.Background()
	// arrivals a simulated minute out: the paced loop executes nothing,
	// so both Opens sit in the one instance's admission queue
	r := workload.Request{ArrivalUs: 60e6, PromptLen: 128, GenLen: 8}
	for i := 0; i < maxQueue; i++ {
		if _, err := l.Open(ctx, r, nil); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, err := l.Open(ctx, r, nil); !errors.Is(err, cluster.ErrAllSaturated) {
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
	c, err := cluster.New(cluster.Config{
		Instances: 1,
		Engine:    traitsCfg(17),
		Telemetry: tc,
		Seed:      17,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(c, LoopConfig{})

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
	if snap.Instances[0].TokenCapacity <= 0 {
		t.Fatalf("capacity = %g, want > 0", snap.Instances[0].TokenCapacity)
	}
}

// TestLoopPaceWait pins the pacing arithmetic: with TimeScale s, a step
// at simulated time T is not due before paceOrigin + T*s wall time, and
// a loop that has fallen behind slides its origin forward instead of
// banking the deficit.
func TestLoopPaceWait(t *testing.T) {
	now := time.Now()
	l := &Loop{cfg: LoopConfig{TimeScale: 2}, start: now, paceOrigin: now}
	// 50_000 simulated us at 2x wall = 100ms after the origin
	if w := l.paceWait(50_000); w < 80*time.Millisecond || w > 100*time.Millisecond {
		t.Fatalf("paceWait = %v, want ~100ms", w)
	}
	l.cfg.TimeScale = 0
	if w := l.paceWait(50_000); w != 0 {
		t.Fatalf("unpaced loop must never wait, got %v", w)
	}

	// behind schedule (an idle hour the simulated clock never consumed):
	// the origin slides forward so the due step runs now and the NEXT
	// simulated interval still paces — no flat-out burst from banked time
	l = &Loop{cfg: LoopConfig{TimeScale: 1}, start: now, paceOrigin: now.Add(-time.Hour)}
	if w := l.paceWait(1_000); w != 0 {
		t.Fatalf("overdue step must be due now, got %v", w)
	}
	if w := l.paceWait(101_000); w < 80*time.Millisecond || w > 100*time.Millisecond {
		t.Fatalf("post-slide pacing broken: next step 100ms of simulated time out waits %v", w)
	}
}
