package serving

import (
	"math"
	"testing"

	"diffkv/internal/offload"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// drainCompletions drives the engine to completion, returning every
// Completion it produced (stepUntil's per-Step checks included).
func drainCompletions(t *testing.T, e *Engine) []Completion {
	t.Helper()
	return stepUntil(t, e, func() bool { return false })
}

// serveAll submits reqs, drains the engine through drainCompletions and
// returns its Result.
func serveAll(t *testing.T, e *Engine, reqs []workload.Request) Result {
	t.Helper()
	for _, r := range reqs {
		e.Submit(r)
	}
	drainCompletions(t, e)
	return e.Result()
}

// The phase buckets are maintained at every scheduler transition, so
// they must sum to the end-to-end latency exactly — through swap
// preemptions included — and the span trees rebuilt from the trace
// events must agree with the engine's own accounting.
func TestPhaseBreakdownSumsToE2E(t *testing.T) {
	col := trace.NewCollector(0)
	cfg := oversubCfg(offload.PolicySwap, 2<<30, 11)
	cfg.Tracer = col
	e := newEngine(t, cfg)
	for _, r := range cotReqs(20, 11) {
		e.Submit(r)
	}
	comps := drainCompletions(t, e)
	if len(comps) != 20 {
		t.Fatalf("completed %d of 20", len(comps))
	}

	var sawSwapped bool
	byID := map[int]Completion{}
	for _, cp := range comps {
		byID[cp.Req.ID] = cp
		e2e := cp.DoneUs - cp.Req.ArrivalUs
		if diff := math.Abs(cp.Phases.TotalUs() - e2e); diff > 1 {
			t.Fatalf("req %d: phase sum %.3f != e2e %.3f (off by %.3fus)",
				cp.Req.ID, cp.Phases.TotalUs(), e2e, diff)
		}
		if cp.Phases.PrefillUs <= 0 || cp.Phases.DecodeUs <= 0 {
			t.Fatalf("req %d: prefill %.3f / decode %.3f must be positive",
				cp.Req.ID, cp.Phases.PrefillUs, cp.Phases.DecodeUs)
		}
		if cp.Phases.SwappedUs > 0 {
			sawSwapped = true
		}
		if cp.Preemptions == 0 && (cp.Phases.StallUs != 0 || cp.Phases.SwappedUs != 0) {
			t.Fatalf("req %d: preemption time without preemptions: %+v", cp.Req.ID, cp.Phases)
		}
	}
	if !sawSwapped {
		t.Fatal("oversubscribed swap run attributed no swapped time")
	}

	// the span trees rebuilt from the event stream are the same numbers
	trees := trace.BuildRequestSpans(col.Events())
	for _, rt := range trees {
		cp, ok := byID[rt.Seq]
		if !ok {
			t.Fatalf("span tree for unknown request %d", rt.Seq)
		}
		if !rt.Completed {
			t.Fatalf("req %d tree not marked completed", rt.Seq)
		}
		if diff := math.Abs(rt.Phases.TotalUs() - cp.Phases.TotalUs()); diff > 1 {
			t.Fatalf("req %d: span phases %+v disagree with engine %+v",
				rt.Seq, rt.Phases, cp.Phases)
		}
		if rt.Preemptions != cp.Preemptions {
			t.Fatalf("req %d: span preemptions %d != engine %d",
				rt.Seq, rt.Preemptions, cp.Preemptions)
		}
	}
	if len(trees) != len(comps) {
		t.Fatalf("span trees %d != completions %d", len(trees), len(comps))
	}
}

// Recompute preemption routes lost time into the stall bucket.
func TestPhaseBreakdownStallUnderRecompute(t *testing.T) {
	e := newEngine(t, oversubCfg(offload.PolicyRecompute, 0, 7))
	for _, r := range cotReqs(20, 7) {
		e.Submit(r)
	}
	comps := drainCompletions(t, e)
	var sawStall bool
	for _, cp := range comps {
		e2e := cp.DoneUs - cp.Req.ArrivalUs
		if diff := math.Abs(cp.Phases.TotalUs() - e2e); diff > 1 {
			t.Fatalf("req %d: phase sum %.3f != e2e %.3f", cp.Req.ID, cp.Phases.TotalUs(), e2e)
		}
		if cp.Phases.SwappedUs != 0 {
			t.Fatalf("req %d: swapped time without a host tier", cp.Req.ID)
		}
		if cp.Phases.StallUs > 0 {
			sawStall = true
		}
	}
	if e.Result().Preemptions == 0 {
		t.Fatal("run was not oversubscribed enough to preempt")
	}
	if !sawStall {
		t.Fatal("recompute preemptions attributed no stall time")
	}
}
