package serving

import (
	"encoding/json"
	"math"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/gpusim"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func cluster(gpus int) *gpusim.Cluster { return gpusim.NewCluster(gpusim.L40(), gpus) }

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// liveRecords counts the request records e still holds (queued, running,
// swapped, or exported and uncollected), cross-checking the ID index, the
// session count and the kept token counts against the three queues. Zero
// after a drained run.
func liveRecords(t *testing.T, e *Engine) int {
	t.Helper()
	checkTokenCounts(t, e)
	queued, sessions := 0, 0
	for _, q := range [][]*seqState{e.pending, e.running, e.swappedQ} {
		for _, st := range q {
			queued++
			if e.live[st.req.ID] != st {
				t.Fatalf("request %d is queued but not indexed", st.req.ID)
			}
			if st.Sess != nil {
				sessions++
			}
		}
	}
	if queued != len(e.live) || sessions != e.sessN {
		t.Fatalf("index holds %d records (%d sessions), queues hold %d (%d sessions)",
			len(e.live), e.sessN, queued, sessions)
	}
	return e.LiveRecords()
}

// checkTokenCounts recounts the running and swapped queues and requires
// the engine's kept ResidentTokens / SwappedTokens to equal the sums.
func checkTokenCounts(t *testing.T, e *Engine) {
	t.Helper()
	sum := func(q []*seqState) (n int) {
		for _, st := range q {
			n += st.tokens()
		}
		return n
	}
	if r, s := sum(e.running), sum(e.swappedQ); e.ResidentTokens() != r || e.SwappedTokens() != s {
		t.Fatalf("kept resident/swapped tokens %d/%d, recount %d/%d",
			e.ResidentTokens(), e.SwappedTokens(), r, s)
	}
}

func batchReqs(b *workload.Benchmark, n int, seed uint64) []workload.Request {
	return workload.NewRequestGen(b, 1024, seed).Batch(n)
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	// 70B on one 48GB GPU: weights alone exceed memory
	_, err := NewEngine(Config{
		Model: synth.Llama3_70B, Cluster: cluster(1), Traits: baselines.TraitsVLLM,
	})
	if err == nil {
		t.Fatal("expected OOM error for 70B on one GPU")
	}
	// four GPUs fit
	if _, err := NewEngine(Config{
		Model: synth.Llama3_70B, Cluster: cluster(4), Traits: baselines.TraitsVLLM,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVLLMRunCompletes(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 1,
	})
	res := serveAll(t, e, batchReqs(workload.MATH, 16, 1))
	if res.Completed != 16 {
		t.Fatalf("completed %d of 16", res.Completed)
	}
	if res.Throughput <= 0 || res.AvgBatch <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	if res.GenSteps == 0 || res.PromptSteps == 0 {
		t.Fatal("both phases must execute")
	}
}

func TestCompressionIncreasesBatchAndThroughput(t *testing.T) {
	// shrink the KV budget so memory binds the batch size at test scale
	reqs := batchReqs(workload.MATH, 64, 2)
	run := func(traits baselines.ServingTraits, useMgr bool) Result {
		e := newEngine(t, Config{
			Model: synth.Llama3_8B, Cluster: cluster(1),
			Traits: traits, UseManager: useMgr,
			HiFrac: 0.2, LoFrac: 0.25, Seed: 2,
			MemoryReserve: 0.97,
		})
		return serveAll(t, e, reqs)
	}
	vllm := run(baselines.TraitsVLLM, false)
	diff := run(baselines.TraitsDiffKV(0.3), true)
	if diff.AvgBatch <= vllm.AvgBatch {
		t.Fatalf("DiffKV batch %v should exceed vLLM %v", diff.AvgBatch, vllm.AvgBatch)
	}
	if diff.Throughput <= vllm.Throughput {
		t.Fatalf("DiffKV throughput %v should exceed vLLM %v", diff.Throughput, vllm.Throughput)
	}
}

func TestHFOverheadReducesThroughput(t *testing.T) {
	reqs := batchReqs(workload.MATH, 32, 3)
	run := func(traits baselines.ServingTraits) Result {
		e := newEngine(t, Config{
			Model: synth.Llama3_8B, Cluster: cluster(1), Traits: traits, Seed: 3,
		})
		return serveAll(t, e, reqs)
	}
	kiviLike := baselines.TraitsKIVI
	noOverhead := kiviLike
	noOverhead.FrameworkOverhead = 1
	withOH := run(kiviLike)
	without := run(noOverhead)
	if withOH.Throughput >= without.Throughput {
		t.Fatalf("framework overhead must cost throughput: %v vs %v",
			withOH.Throughput, without.Throughput)
	}
}

func TestQuestSameBatchAsVLLM(t *testing.T) {
	// Quest retains the full cache: batch matches vLLM, but attention
	// reads fewer bytes so throughput improves (paper §7.3).
	reqs := batchReqs(workload.MATH, 48, 4)
	run := func(traits baselines.ServingTraits) Result {
		e := newEngine(t, Config{
			Model: synth.Llama3_8B, Cluster: cluster(1), Traits: traits, Seed: 4,
		})
		return serveAll(t, e, reqs)
	}
	vllm := run(baselines.TraitsVLLM)
	quest := run(baselines.TraitsQuest)
	ratio := quest.AvgBatch / vllm.AvgBatch
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("Quest batch ratio vs vLLM = %v, want ~1", ratio)
	}
	if quest.Throughput <= vllm.Throughput {
		t.Fatalf("Quest throughput %v should beat vLLM %v", quest.Throughput, vllm.Throughput)
	}
}

func TestManagerConservation(t *testing.T) {
	// After every request completes, all pages must be recycled.
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.2, LoFrac: 0.25, Seed: 5,
	})
	serveAll(t, e, batchReqs(workload.GSM8K, 24, 5))
	if e.Stats().UsedKVPages != 0 {
		t.Fatalf("pages leaked after run: %d", e.Stats().UsedKVPages)
	}
	if n := liveRecords(t, e); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
}

func TestMemMgmtBreakdownSmallOnGPU(t *testing.T) {
	// Fig. 14: on-GPU memory management must be a sub-percent fraction of
	// step time.
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.2, LoFrac: 0.25, Seed: 6,
	})
	res := serveAll(t, e, batchReqs(workload.MATH, 32, 6))
	frac := float64(res.Gen.MemMgmt) / float64(res.Gen.Total())
	if frac > 0.05 {
		t.Fatalf("generation mem-mgmt fraction = %v, want < 5%%", frac)
	}
}

func TestPoissonLatencyGrowsWithRate(t *testing.T) {
	// Fig. 16: higher request rates mean more queueing, higher per-token
	// latency.
	run := func(rate float64) Result {
		gen := workload.NewRequestGen(workload.GSM8K, 512, 8)
		reqs := gen.Poisson(rate, 300)
		e := newEngine(t, Config{
			Model: synth.Llama3_8B, Cluster: cluster(1),
			Traits: baselines.TraitsVLLM, Seed: 8,
		})
		return serveAll(t, e, reqs)
	}
	slow := run(0.2)
	fast := run(5)
	if slow.Completed == 0 || fast.Completed == 0 {
		t.Fatal("no completions")
	}
	if fast.AvgPerTokenLatency <= slow.AvgPerTokenLatency {
		t.Fatalf("latency should grow with load: %v vs %v",
			fast.AvgPerTokenLatency, slow.AvgPerTokenLatency)
	}
}

func TestTokenCapacityPositive(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM,
	})
	if e.TotalTokenCapacity() <= 0 {
		t.Fatal("capacity must be positive")
	}
	// compression raises capacity
	c := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3),
	})
	if c.TotalTokenCapacity() <= e.TotalTokenCapacity() {
		t.Fatal("compression must raise token capacity")
	}
}

// A request that generates nothing completes right after its prompt step
// and must not poison the run's mean per-token latency: it contributes 0,
// as in Completion.LatencySec, so the Result stays finite and marshals.
func TestZeroGenLenKeepsLatencyFinite(t *testing.T) {
	for _, cfg := range []Config{
		{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM},
		managerCfg(9),
	} {
		e := newEngine(t, cfg)
		res := serveAll(t, e, []workload.Request{
			{ID: 1, PromptLen: 256, GenLen: 0},
			{ID: 2, PromptLen: 256, GenLen: 32},
		})
		if res.Completed != 2 || res.AvgPerTokenLatency <= 0 || math.IsInf(res.AvgPerTokenLatency, 0) {
			t.Fatalf("UseManager=%v: completed %d, avg per-token latency %v",
				cfg.UseManager, res.Completed, res.AvgPerTokenLatency)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("UseManager=%v: %v", cfg.UseManager, err)
		}
	}
}
