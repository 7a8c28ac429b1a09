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
	if e.Stats().UsedKVPages != 0 {
		t.Fatalf("pages leaked under preemption: %d", e.Stats().UsedKVPages)
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
	if e.Stats().UsedKVPages != 0 {
		t.Fatalf("pages leaked: %d", e.Stats().UsedKVPages)
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

// A prompt longer than MaxSeqLen can overflow a head's page table, which
// fails PromptCompact after it has planned. The failed step must leave no
// page behind and keep the request's record, or every retry shrinks the
// pool until nothing admits.
func TestOverlongPromptFailsClean(t *testing.T) {
	cfg := managerCfg(3)
	cfg.HiFrac = 0.7 // 1.3 × MaxSeqLen at 0.7 high precision: no draw fits 28 slots
	e := newEngine(t, cfg)
	e.Submit(workload.Request{ID: 1, PromptLen: synth.Llama3_8B.MaxSeqLen * 13 / 10, GenLen: 4})
	used := e.Stats().UsedKVPages
	for steps := 0; e.Result().Preemptions == 0; steps++ {
		if steps == 4 {
			t.Fatal("the over-long prompt was never preempted")
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().UsedKVPages; got != used {
		t.Fatalf("failed prompt step left %d KV pages in use, %d before it", got, used)
	}
	if n := liveRecords(t, e); n != 1 {
		t.Fatalf("%d records for one preempted request", n)
	}
}

// At 0.35 high precision the same prompt fits on about one draw in twenty;
// mixed into ordinary traffic the run must still drain to an empty pool
// with every request completed.
func TestOverlongPromptDrains(t *testing.T) {
	cfg := managerCfg(5)
	cfg.HiFrac = 0.35
	e := newEngine(t, cfg)
	reqs := batchReqs(workload.GSM8K, 12, 5)
	reqs = append(reqs, workload.Request{ID: 1000, PromptLen: synth.Llama3_8B.MaxSeqLen * 13 / 10, GenLen: 8})
	for _, r := range reqs {
		e.Submit(r)
	}
	for steps := 0; e.HasWork(); steps++ {
		if steps == 5000 {
			t.Fatalf("no drain in %d steps: %d of %d completed, %d KV pages in use",
				steps, e.Result().Completed, len(reqs), e.Stats().UsedKVPages)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Result()
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	if res.Preemptions == 0 {
		t.Fatal("the over-long prompt fitted on its first draw: pick a seed that exercises the retry")
	}
	if used := e.Stats().UsedKVPages; used != 0 {
		t.Fatalf("%d KV pages in use after the drain", used)
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
}
