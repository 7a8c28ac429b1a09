package serving

import (
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/synth"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// TestPreemptionUnderTightMemory drives the manager-mode engine into
// repeated preemption and verifies that every request still completes
// exactly once and no pages leak — the safety property of recompute
// preemption.
func TestPreemptionUnderTightMemory(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3, Seed: 11,
		MemoryReserve: 0.985, // ~430 MB of KV: forces constant pressure
	})
	reqs := batchReqs(workload.GSM8K, 24, 11)
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d under pressure", res.Completed, len(reqs))
	}
	if e.mgr.UsedPages() != 0 {
		t.Fatalf("pages leaked under preemption: %d", e.mgr.UsedPages())
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput recorded")
	}
}

// TestPreemptionPoisson combines open-loop arrivals with tight memory.
func TestPreemptionPoisson(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Qwen25_7B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.25, Seed: 13,
		MemoryReserve: 0.98,
	})
	reqs := workload.NewRequestGen(workload.GSM8K, 384, 13).Poisson(2, 60)
	if len(reqs) == 0 {
		t.Skip("no arrivals drawn")
	}
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	if e.mgr.UsedPages() != 0 {
		t.Fatalf("pages leaked: %d", e.mgr.UsedPages())
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
}

// TestGenLimitClamp verifies MaxGenLen truncates admitted requests.
func TestGenLimitClamp(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, MaxGenLen: 64, Seed: 17,
	})
	reqs := workload.NewRequestGen(workload.MATH, 4096, 17).Batch(4)
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// 4 requests x at most 64 generated tokens each
	if res.GenSteps > 4*64 {
		t.Fatalf("generation ran past the limit: %d steps", res.GenSteps)
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d", res.Completed)
	}
}

// TestBreakdownAccumulates checks the Fig. 14 component accounting is
// internally consistent: totals equal the sum of parts and both phases ran.
func TestBreakdownAccumulates(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.2, LoFrac: 0.25, Seed: 19,
	})
	res, err := e.Run(batchReqs(workload.GSM8K, 8, 19))
	if err != nil {
		t.Fatal(err)
	}
	for phase, bd := range map[string]StepBreakdown{"prompt": res.Prompt, "gen": res.Gen} {
		total := bd.Scheduler + bd.MemMgmt + bd.Compressor + bd.ModelExec
		if total != bd.Total() {
			t.Fatalf("%s: Total() inconsistent", phase)
		}
		if bd.ModelExec <= 0 {
			t.Fatalf("%s: no model execution time", phase)
		}
	}
	if res.Gen.MemMgmt <= 0 {
		t.Fatal("generation phase recorded no memory-management time")
	}
}

// TestTracerReceivesEvents verifies the serving engine emits the full
// event lifecycle into a configured tracer.
func TestTracerReceivesEvents(t *testing.T) {
	col := trace.NewCollector(0)
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3, Seed: 23,
		MemoryReserve: 0.985, // tight: force at least one preemption
		Tracer:        col,
	})
	reqs := batchReqs(workload.GSM8K, 16, 23)
	if _, err := e.Run(reqs); err != nil {
		t.Fatal(err)
	}
	s := col.Summarize()
	if s.Counts[trace.KindAdmit] < len(reqs) {
		t.Fatalf("admits = %d, want >= %d (re-admissions count too)",
			s.Counts[trace.KindAdmit], len(reqs))
	}
	if s.Counts[trace.KindComplete] != len(reqs) {
		t.Fatalf("completes = %d", s.Counts[trace.KindComplete])
	}
	if s.Counts[trace.KindPromptStep] == 0 || s.Counts[trace.KindGenStep] == 0 {
		t.Fatal("step events missing")
	}
	if s.MaxBatch <= 0 {
		t.Fatal("no batch recorded")
	}
	// events are time-ordered
	prev := -1.0
	for _, ev := range col.Events() {
		if ev.TimeUs < prev {
			t.Fatal("events out of order")
		}
		prev = ev.TimeUs
	}
}
