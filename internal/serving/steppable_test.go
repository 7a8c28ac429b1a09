package serving

import (
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// TestOnlineSubmitMatchesUpFront verifies that submitting each request
// only once the engine's clock reaches its arrival — the way the cluster's
// event loop dispatches — produces exactly the metrics of submitting the
// whole list up front: admission must read arrival times, not submission
// order, so any divergence means hidden state.
func TestOnlineSubmitMatchesUpFront(t *testing.T) {
	reqs := workload.NewRequestGen(workload.GSM8K, 512, 77).Poisson(2, 60)
	cfg := Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 77,
	}
	whole := newEngine(t, cfg)
	wantRes := serveAll(t, whole, reqs)

	stepped := newEngine(t, cfg)
	var comps []Completion
	for next := 0; next < len(reqs) || stepped.HasWork(); {
		if at, ok := stepped.NextTime(); next < len(reqs) && (!ok || reqs[next].ArrivalUs <= float64(at)) {
			stepped.Submit(reqs[next])
			next++
			continue
		}
		cs, err := stepped.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, cs...)
	}
	gotRes := stepped.Result()

	if gotRes != wantRes {
		t.Fatalf("steppable result diverges:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	if len(comps) != wantRes.Completed {
		t.Fatalf("collected %d completions, want %d", len(comps), wantRes.Completed)
	}
	for _, c := range comps {
		if c.FirstTokenUs <= c.Req.ArrivalUs {
			t.Fatalf("first token before arrival: %+v", c)
		}
		if c.DoneUs < c.FirstTokenUs {
			t.Fatalf("completion before first token: %+v", c)
		}
	}
}

// TestNextTimeSemantics checks the clock the cluster event loop orders on.
func TestNextTimeSemantics(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 5,
	})
	if _, ok := e.NextTime(); ok {
		t.Fatal("empty engine must report no work")
	}
	e.Submit(workload.Request{ID: 1, ArrivalUs: 5e6, PromptLen: 128, GenLen: 32})
	tm, ok := e.NextTime()
	if !ok || float64(tm) != 5e6 {
		t.Fatalf("idle engine must wake at the arrival: %v %v", tm, ok)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if e.RunningCount() != 1 || e.QueueDepth() != 0 {
		t.Fatalf("admission failed: running=%d queued=%d", e.RunningCount(), e.QueueDepth())
	}
	if e.ResidentTokens() < 128 {
		t.Fatalf("resident tokens %d, want >= prompt length", e.ResidentTokens())
	}
	if e.BusyTime() <= 0 {
		t.Fatal("step must accrue busy time")
	}
}

// TestPrefixCacheShortensPromptPhase runs the same shared-prefix sequence
// with and without the prefix cache: cached runs must spend less prompt
// time and report cached tokens on completions.
func TestPrefixCacheShortensPromptPhase(t *testing.T) {
	mkReqs := func() []workload.Request {
		var out []workload.Request
		for i := 0; i < 12; i++ {
			out = append(out, workload.Request{
				ID: i + 1, ArrivalUs: float64(i) * 4e6,
				PromptLen: 1024, GenLen: 32,
				PrefixGroup: 1, PrefixLen: 896,
			})
		}
		return out
	}
	run := func(groups int) (Result, []Completion) {
		e := newEngine(t, Config{
			Model: synth.Llama3_8B, Cluster: cluster(1),
			Traits: baselines.TraitsVLLM, Seed: 9,
			PrefixCacheGroups: groups,
		})
		for _, r := range mkReqs() {
			e.Submit(r)
		}
		var comps []Completion
		for e.HasWork() {
			cs, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, cs...)
		}
		return e.Result(), comps
	}
	cold, coldComps := run(0)
	warm, warmComps := run(4)
	if len(coldComps) != 12 || len(warmComps) != 12 {
		t.Fatalf("completions: cold %d warm %d", len(coldComps), len(warmComps))
	}
	var cachedTok int
	for _, c := range warmComps {
		cachedTok += c.CachedPrefixTokens
	}
	// 11 of 12 requests hit the warmed prefix
	if cachedTok < 11*800 {
		t.Fatalf("cached tokens %d, want >= %d", cachedTok, 11*800)
	}
	for _, c := range coldComps {
		if c.CachedPrefixTokens != 0 {
			t.Fatal("prefix cache disabled but tokens cached")
		}
	}
	if warm.Prompt.ModelExec >= cold.Prompt.ModelExec {
		t.Fatalf("prefix cache must cut prompt execution: warm %v cold %v",
			warm.Prompt.ModelExec, cold.Prompt.ModelExec)
	}
}

// TestPrefixCacheLRUEviction verifies capacity bounds and deterministic
// LRU eviction of prefix groups.
func TestPrefixCacheLRUEviction(t *testing.T) {
	e := newEngine(t, Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsVLLM, Seed: 3,
		PrefixCacheGroups: 2,
	})
	// three groups arrive in order; capacity 2 evicts group 1
	for g := 1; g <= 3; g++ {
		e.Submit(workload.Request{
			ID: g, ArrivalUs: float64(g) * 1e6,
			PromptLen: 512, GenLen: 16, PrefixGroup: g, PrefixLen: 384,
		})
	}
	drainCompletions(t, e)
	if e.prefix[1] != nil {
		t.Fatal("group 1 should have been LRU-evicted")
	}
	if e.prefix[2] == nil || e.prefix[2].tokens != 384 || e.prefix[3] == nil || e.prefix[3].tokens != 384 {
		t.Fatalf("groups 2/3 should be resident with 384 tokens each: %+v %+v", e.prefix[2], e.prefix[3])
	}
}
