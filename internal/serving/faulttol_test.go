package serving

import (
	"context"
	"math"
	"testing"

	"diffkv/internal/offload"
	"diffkv/internal/trace"
)

// stepUntil drives the engine until cond holds (or work runs out),
// returning the completions produced along the way.
func stepUntil(t *testing.T, e *Engine, cond func() bool) []Completion {
	t.Helper()
	var comps []Completion
	for e.HasWork() && !cond() {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, done...)
	}
	return comps
}

// A crash on one engine followed by Readmit on another must keep the
// latency accounting honest: completions report the original arrival,
// their phase buckets sum to end-to-end exactly (the crash-to-readmit
// gap charged to queueing), Attempts counts both dispatches, and the
// re-dispatch timestamp lands in RetryUs.
func TestCrashReadmitAccountingStaysExact(t *testing.T) {
	cfgA := oversubCfg(offload.PolicyRecompute, 0, 21)
	a := newEngine(t, cfgA)
	for _, r := range cotReqs(12, 21) {
		a.Submit(r)
	}
	// run engine A partway so the crash strands a mix of running and
	// pending requests
	pre := stepUntil(t, a, func() bool { return len(a.running) >= 2 && a.Result().Completed >= 1 })
	crashUs := float64(a.Clock()) + 500
	rep, err := a.Crash(crashUs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) == 0 {
		t.Fatal("crash stranded no requests")
	}
	if a.HasWork() {
		t.Fatal("crashed engine still reports work")
	}
	if n := liveRecords(t, a); n != 0 {
		t.Fatalf("crash left %d request records behind", n)
	}
	if a.Stats().UsedKVPages != 0 {
		t.Fatalf("crash left %d pages registered", a.Stats().UsedKVPages)
	}
	if rep.LostKVBytes <= 0 {
		t.Fatal("crash with running sequences lost no KV bytes")
	}
	for i := 1; i < len(rep.Orphans); i++ {
		if rep.Orphans[i-1].Req.ID >= rep.Orphans[i].Req.ID {
			t.Fatal("orphans not in request-ID order")
		}
	}

	b := newEngine(t, oversubCfg(offload.PolicyRecompute, 0, 22))
	redispatchUs := crashUs + 25_000 // the downtime the requests must absorb
	for _, o := range rep.Orphans {
		if o.Attempts != 1 {
			t.Fatalf("orphan %d attempts %d, want 1", o.Req.ID, o.Attempts)
		}
		if o.AsOfUs != crashUs {
			t.Fatalf("orphan %d closed at %g, want crash time %g", o.Req.ID, o.AsOfUs, crashUs)
		}
		if err := b.Readmit(o, redispatchUs); err != nil {
			t.Fatal(err)
		}
	}
	comps := drainCompletions(t, b)
	if len(comps) != len(rep.Orphans) {
		t.Fatalf("completed %d of %d re-dispatched", len(comps), len(rep.Orphans))
	}
	if n := liveRecords(t, b); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	for _, cp := range comps {
		if cp.Attempts != 2 {
			t.Fatalf("req %d attempts %d, want 2", cp.Req.ID, cp.Attempts)
		}
		// first retry entry is the re-dispatch; later entries (if any) are
		// preemption retries on the surviving engine
		if len(cp.RetryUs) == 0 || cp.RetryUs[0] != redispatchUs {
			t.Fatalf("req %d retry record %v, want first entry %g", cp.Req.ID, cp.RetryUs, redispatchUs)
		}
		e2e := cp.DoneUs - cp.Req.ArrivalUs
		if diff := math.Abs(cp.Phases.TotalUs() - e2e); diff > 1 {
			t.Fatalf("req %d: phase sum %.3f != e2e %.3f across crash", cp.Req.ID, cp.Phases.TotalUs(), e2e)
		}
		// the dead time between crash and re-admission is queueing
		if cp.Phases.QueueUs < redispatchUs-crashUs {
			t.Fatalf("req %d: queue %.0fus does not cover the %gus outage",
				cp.Req.ID, cp.Phases.QueueUs, redispatchUs-crashUs)
		}
	}
	// requests that completed before the crash keep attempt count 1
	for _, cp := range pre {
		if cp.Attempts != 1 {
			t.Fatalf("pre-crash req %d attempts %d, want 1", cp.Req.ID, cp.Attempts)
		}
	}
}

// keepSwapped crash insurance: sequences in the host tier survive the
// crash, are not orphaned, and complete after Restart without losing
// their generation progress.
func TestCrashKeepsSwappedThroughRestart(t *testing.T) {
	cfg := oversubCfg(offload.PolicySwap, 2<<30, 11)
	e := newEngine(t, cfg)
	for _, r := range cotReqs(20, 11) {
		e.Submit(r)
	}
	stepUntil(t, e, func() bool { return len(e.swappedQ) >= 2 })
	kept := len(e.swappedQ)
	if kept < 2 {
		t.Skipf("run produced only %d swapped sequences", kept)
	}
	ids := e.SwappedIDs()
	if len(ids) != kept {
		t.Fatalf("SwappedIDs %d != SwappedCount %d", len(ids), kept)
	}
	crashUs := float64(e.Clock()) + 1
	rep, err := e.Crash(crashUs, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeptSwapped != kept {
		t.Fatalf("kept %d swapped, want %d", rep.KeptSwapped, kept)
	}
	for _, o := range rep.Orphans {
		for _, id := range ids {
			if o.Req.ID == id {
				t.Fatalf("swapped req %d orphaned despite keepSwapped", id)
			}
		}
	}
	if e.tiered.HostUsedBytes() <= 0 {
		t.Fatal("host tier emptied by a keepSwapped crash")
	}
	e.Restart(crashUs + 3_000_000) // 3s outage
	comps := drainCompletions(t, e)
	done := map[int]bool{}
	for _, cp := range comps {
		done[cp.Req.ID] = true
	}
	for _, id := range ids {
		if !done[id] {
			t.Fatalf("swapped req %d never completed after restart", id)
		}
	}
	if e.tiered.HostUsedBytes() != 0 {
		t.Fatalf("host tier not drained: %d bytes", e.tiered.HostUsedBytes())
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
}

// Brownout admission: past the configured queue depth, requests are
// admitted at the all-low tier and counted (and their admit events
// annotated) — capacity is preserved at the cost of fidelity.
func TestBrownoutAdmitsAtLowTier(t *testing.T) {
	col := trace.NewCollector(0)
	cfg := oversubCfg(offload.PolicyRecompute, 0, 31)
	cfg.Tracer = col
	cfg.BrownoutQueueDepth = 4
	e := newEngine(t, cfg)
	reqs := cotReqs(16, 31)
	for i := range reqs {
		reqs[i].ArrivalUs = 0 // an instantaneous burst: deep queue guaranteed
		e.Submit(reqs[i])
	}
	if err := e.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res := e.Result(); res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	if e.BrownoutAdmits() == 0 {
		t.Fatal("deep-queue burst triggered no brownout admissions")
	}
	noted := 0
	for _, ev := range col.Events() {
		if ev.Kind == trace.KindAdmit && ev.Note == "brownout" {
			noted++
		}
	}
	if noted != e.BrownoutAdmits() {
		t.Fatalf("brownout notes %d != counter %d", noted, e.BrownoutAdmits())
	}
}

// A PCIe fault on every D2H transfer forces the swap policy to fall
// back to recompute: the run still completes everything, with zero
// host-tier traffic.
func TestXferFaultFallsBackToRecompute(t *testing.T) {
	cfg := oversubCfg(offload.PolicySwap, 2<<30, 11)
	cfg.XferFault = func() bool { return true }
	e := newEngine(t, cfg)
	reqs := cotReqs(20, 11)
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d with faulty PCIe", res.Completed, len(reqs))
	}
	if res.Preemptions == 0 {
		t.Fatal("run was not oversubscribed enough to preempt")
	}
	if res.Offload.SwapOuts != 0 {
		t.Fatalf("%d swap-outs despite a 100%% D2H fault rate", res.Offload.SwapOuts)
	}
}
