package serving

import (
	"context"
	"errors"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func managerCfg(seed uint64) Config {
	return Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3, Seed: seed,
	}
}

// TestSessionStreamsTokens drives two sessions to completion and checks
// the streaming contract: one First update at the TTFT point, then one
// update per generated token with monotonic counts and timestamps,
// ending exactly at GenLen, with Done observable and the completion
// matching what Step returned.
func TestSessionStreamsTokens(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 21,
	})
	type stream struct {
		first  int
		tokens []int
	}
	streams := map[int]*stream{}
	var sessions []*Session
	for i := 0; i < 2; i++ {
		s, err := e.Open(context.Background(),
			workload.Request{ID: 100 + i, PromptLen: 256, GenLen: 24})
		if err != nil {
			t.Fatal(err)
		}
		rec := &stream{}
		streams[s.ID()] = rec
		s.OnToken(func(u TokenUpdate) {
			if u.First {
				rec.first++
				if len(rec.tokens) != 0 {
					t.Fatalf("seq %d: First after tokens", u.Seq)
				}
				return
			}
			if n := len(rec.tokens); n > 0 && u.Generated != rec.tokens[n-1]+1 {
				t.Fatalf("seq %d: token jump %d -> %d", u.Seq, rec.tokens[n-1], u.Generated)
			}
			rec.tokens = append(rec.tokens, u.Generated)
		})
		sessions = append(sessions, s)
	}
	if e.OpenSessions() != 2 {
		t.Fatalf("open sessions = %d", e.OpenSessions())
	}
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		select {
		case <-s.Done():
		default:
			t.Fatalf("session %d not done after drain", s.ID())
		}
		cp, err := s.Completion()
		if err != nil {
			t.Fatal(err)
		}
		rec := streams[s.ID()]
		if rec.first != 1 {
			t.Fatalf("seq %d: %d First updates", s.ID(), rec.first)
		}
		if len(rec.tokens) != 24 || rec.tokens[23] != 24 {
			t.Fatalf("seq %d: token stream %v", s.ID(), rec.tokens)
		}
		if s.Generated() != 24 || cp.Req.GenLen != 24 {
			t.Fatalf("seq %d: generated %d", s.ID(), s.Generated())
		}
		if cp.FirstTokenUs <= 0 || cp.DoneUs < cp.FirstTokenUs {
			t.Fatalf("seq %d: bad timestamps %+v", s.ID(), cp)
		}
	}
	if e.OpenSessions() != 0 {
		t.Fatalf("sessions leaked: %d", e.OpenSessions())
	}
}

// TestSessionCancelFreesPages is the page-count canary of the
// cancellation contract: cancelling a running session must return its KV
// pages to the pool immediately, and the remaining sessions must drain
// to a fully free pool.
func TestSessionCancelFreesPages(t *testing.T) {
	e := newEngine(t, managerCfg(31))
	var sessions []*Session
	for i := 0; i < 4; i++ {
		s, err := e.Open(context.Background(),
			workload.Request{ID: 200 + i, PromptLen: 1024, GenLen: 256})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	// step until every prompt has run (all sequences hold pages)
	for e.RunningCount() < 4 {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats().UsedKVPages
	if before == 0 {
		t.Fatal("no pages in use after prompt steps")
	}
	sessions[0].Cancel()
	after := e.Stats().UsedKVPages
	if after >= before {
		t.Fatalf("cancel freed no pages: %d -> %d", before, after)
	}
	if !sessions[0].Finished() {
		t.Fatal("cancelled session not finished")
	}
	if _, err := sessions[0].Completion(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled session error = %v", err)
	}
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Stats().UsedKVPages != 0 {
		t.Fatalf("pages leaked after drain: %d", e.Stats().UsedKVPages)
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	if e.CancelledSessions() != 1 {
		t.Fatalf("cancelled count = %d", e.CancelledSessions())
	}
	for _, s := range sessions[1:] {
		if _, err := s.Completion(); err != nil {
			t.Fatalf("surviving session failed: %v", err)
		}
	}
}

// TestSessionCancelSwappedFreesHostBytes cancels a session whose
// sequence is swapped out: its pinned host-tier bytes must be released
// immediately, not when it would have swapped back in.
func TestSessionCancelSwappedFreesHostBytes(t *testing.T) {
	cfg := managerCfg(11)
	cfg.MemoryReserve = 0.985
	cfg.MaxGenLen = 2048
	cfg.PreemptPolicy = "swap"
	cfg.HostMemoryBytes = 2 << 30
	e := newEngine(t, cfg)
	var sessions []*Session
	for i, r := range workload.NewRequestGen(workload.MATH, 2048, 11).CoTBatch(20) {
		r.ID = 300 + i
		s, err := e.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	// step until something is swapped out
	for len(e.swappedQ) == 0 {
		if !e.HasWork() {
			t.Fatal("run drained without any swap-out; oversubscription recipe broken")
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	victimID := e.swappedQ[0].req.ID
	hostBefore := e.tiered.HostUsedBytes()
	if hostBefore == 0 {
		t.Fatal("swap-out left no host bytes")
	}
	var victim *Session
	for _, s := range sessions {
		if s.ID() == victimID {
			victim = s
		}
	}
	victim.Cancel()
	if e.tiered.Swapped(victimID) {
		t.Fatal("cancelled sequence still host-resident")
	}
	if e.tiered.HostUsedBytes() >= hostBefore {
		t.Fatalf("cancel freed no host bytes: %d -> %d", hostBefore, e.tiered.HostUsedBytes())
	}
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Stats().UsedKVPages != 0 || e.tiered.HostUsedBytes() != 0 {
		t.Fatalf("leak after drain: %d pages, %d host bytes",
			e.Stats().UsedKVPages, e.tiered.HostUsedBytes())
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	done := 0
	for _, s := range sessions {
		if _, err := s.Completion(); err == nil {
			done++
		}
	}
	if done != len(sessions)-1 {
		t.Fatalf("completed %d of %d surviving sessions", done, len(sessions)-1)
	}
}

// TestSessionContextCancellation covers the ctx path: a session whose
// context dies is reaped at the next step with its queue slot freed, and
// DrainContext itself respects its own context's deadline.
func TestSessionContextCancellation(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 7,
	})
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := e.Open(ctx, workload.Request{PromptLen: 128, GenLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	if doomed.ID() < sessionAutoIDBase {
		t.Fatalf("auto-assigned ID %d not in session range", doomed.ID())
	}
	alive, err := e.Open(context.Background(), workload.Request{PromptLen: 128, GenLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Completion(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("ctx-cancelled session error = %v", err)
	}
	if _, err := alive.Completion(); err != nil {
		t.Fatalf("unrelated session failed: %v", err)
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}

	// deadline on the drain itself: expired context stops stepping
	e2 := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 8,
	})
	if _, err := e2.Open(context.Background(), workload.Request{PromptLen: 128, GenLen: 64}); err != nil {
		t.Fatal(err)
	}
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := e2.DrainContext(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("DrainContext with dead context = %v", err)
	}
	if !e2.HasWork() {
		t.Fatal("deadline drain should leave work pending")
	}
}

// TestSessionCancelFromCallback cancels a session from inside its own
// token callback (mid-step): the cancel must be deferred to the step
// boundary, then free state exactly like an idle-time cancel.
func TestSessionCancelFromCallback(t *testing.T) {
	e := newEngine(t, managerCfg(13))
	s, err := e.Open(context.Background(), workload.Request{PromptLen: 512, GenLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Open(context.Background(), workload.Request{PromptLen: 512, GenLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.OnToken(func(u TokenUpdate) {
		if u.Generated == 5 {
			s.Cancel()
		}
	})
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Completion(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("callback-cancelled session error = %v", err)
	}
	if s.Generated() != 5 {
		t.Fatalf("generated %d tokens after cancel at 5", s.Generated())
	}
	if _, err := other.Completion(); err != nil {
		t.Fatalf("other session failed: %v", err)
	}
	if e.Stats().UsedKVPages != 0 {
		t.Fatalf("pages leaked: %d", e.Stats().UsedKVPages)
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
}

// TestSessionSingleFirstUnderPreemption runs sessions through a
// recompute-preemption-heavy engine: a preempted request re-runs its
// prompt on a fresh seqState, but each session must still see exactly
// one First update and a monotonic token stream.
func TestSessionSingleFirstUnderPreemption(t *testing.T) {
	cfg := managerCfg(11)
	cfg.MemoryReserve = 0.985
	cfg.MaxGenLen = 2048
	e := newEngine(t, cfg)
	firsts := map[int]int{}
	lastTok := map[int]int{}
	var sessions []*Session
	for i, r := range workload.NewRequestGen(workload.MATH, 2048, 11).CoTBatch(20) {
		r.ID = 400 + i
		s, err := e.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		id := s.ID()
		s.OnToken(func(u TokenUpdate) {
			if u.First {
				firsts[id]++
				return
			}
			if u.Generated <= lastTok[id] {
				t.Fatalf("seq %d: non-monotonic token stream %d after %d", id, u.Generated, lastTok[id])
			}
			lastTok[id] = u.Generated
		})
		sessions = append(sessions, s)
	}
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.preemptTotal == 0 {
		t.Fatal("workload not preemption-heavy; test proves nothing")
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	for _, s := range sessions {
		if _, err := s.Completion(); err != nil {
			t.Fatal(err)
		}
		if n := firsts[s.ID()]; n != 1 {
			t.Fatalf("seq %d: %d First updates under preemption", s.ID(), n)
		}
	}
}

// TestSessionDuplicateAndInvalid covers Open's argument contract.
func TestSessionDuplicateAndInvalid(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 9,
	})
	if _, err := e.Open(context.Background(), workload.Request{ID: 7, PromptLen: 64, GenLen: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open(context.Background(), workload.Request{ID: 7, PromptLen: 64, GenLen: 8}); err == nil {
		t.Fatal("duplicate session ID must error")
	}
	if _, err := e.Open(context.Background(), workload.Request{ID: 8, PromptLen: 64}); err == nil {
		t.Fatal("zero GenLen must error")
	}
}
