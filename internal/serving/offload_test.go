package serving

import (
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/offload"
	"diffkv/internal/synth"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// oversubCfg builds a manager-mode config whose KV budget forces
// generation-phase preemption pressure at test scale (page-aware admission
// queues prompts that cannot fit, so pressure comes from KV growth during
// long generations).
func oversubCfg(policy string, hostBytes int64, seed uint64) Config {
	return Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3, Seed: seed,
		MemoryReserve:   0.985,
		MaxGenLen:       2048,
		PreemptPolicy:   policy,
		HostMemoryBytes: hostBytes,
	}
}

// cotReqs samples a closed-loop chain-of-thought batch: near-limit
// generations grow the KV cache mid-flight, which is what drives
// generation-phase preemptions.
func cotReqs(n int, seed uint64) []workload.Request {
	return workload.NewRequestGen(workload.MATH, 2048, seed).CoTBatch(n)
}

// TestSwapPreemptionCompletesAll drives the swap recovery policy through
// heavy oversubscription: every request completes, no pages leak, the host
// tier fully drains, and swap activity is visible in Result and the trace.
func TestSwapPreemptionCompletesAll(t *testing.T) {
	col := trace.NewCollector(0)
	cfg := oversubCfg(offload.PolicySwap, 2<<30, 11)
	cfg.Tracer = col
	e := newEngine(t, cfg)
	reqs := cotReqs(20, 11)
	res := serveAll(t, e, reqs)
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d under swap preemption", res.Completed, len(reqs))
	}
	if e.Stats().UsedKVPages != 0 {
		t.Fatalf("pages leaked: %d", e.Stats().UsedKVPages)
	}
	if len(e.swappedQ) != 0 || e.tiered.HostUsedBytes() != 0 {
		t.Fatalf("host tier not drained: %d seqs, %d bytes", len(e.swappedQ), e.tiered.HostUsedBytes())
	}
	m := res.Offload
	if m.SwapOuts == 0 {
		t.Fatal("oversubscribed run performed no swap-outs")
	}
	if m.SwapIns != m.SwapOuts {
		t.Fatalf("swap-ins %d != swap-outs %d after drain", m.SwapIns, m.SwapOuts)
	}
	if m.SwapOutBytes <= 0 || m.SwapInBytes != m.SwapOutBytes {
		t.Fatalf("swap byte accounting: out %d in %d", m.SwapOutBytes, m.SwapInBytes)
	}
	// prompt-phase preemptions stay recompute (a failed prompt allocation
	// leaves nothing to swap), so swaps are a subset of preemptions
	if res.Preemptions < m.SwapOuts {
		t.Fatalf("preemptions %d < swap-outs %d", res.Preemptions, m.SwapOuts)
	}
	if res.OffloadTransferSeconds <= 0 {
		t.Fatal("swap traffic must charge PCIe transfer time")
	}
	if res.OffloadStallSeconds > res.OffloadTransferSeconds {
		t.Fatalf("stall %.6fs exceeds raw transfer %.6fs",
			res.OffloadStallSeconds, res.OffloadTransferSeconds)
	}
	s := col.Summarize()
	if s.Counts[trace.KindSwapOut] != m.SwapOuts || s.Counts[trace.KindSwapIn] != m.SwapIns {
		t.Fatalf("trace swap events (%d,%d) != metrics (%d,%d)",
			s.Counts[trace.KindSwapOut], s.Counts[trace.KindSwapIn], m.SwapOuts, m.SwapIns)
	}
}

// TestSwapBeatsRecomputeGoodput pins the headline claim: on a
// preemption-heavy workload, swap recovery preserves generated work that
// recompute throws away, so useful-token goodput is strictly higher.
func TestSwapBeatsRecomputeGoodput(t *testing.T) {
	reqs := cotReqs(20, 11)
	run := func(policy string, host int64) Result {
		e := newEngine(t, oversubCfg(policy, host, 11))
		res := serveAll(t, e, reqs)
		if res.Completed != len(reqs) {
			t.Fatalf("%s: completed %d of %d", policy, res.Completed, len(reqs))
		}
		if res.Preemptions == 0 {
			t.Fatalf("%s: workload not preemption-heavy", policy)
		}
		return res
	}
	rec := run(offload.PolicyRecompute, 0)
	swp := run(offload.PolicySwap, 2<<30)
	if swp.GoodputTokensPerSec <= rec.GoodputTokensPerSec {
		t.Fatalf("swap goodput %.0f tok/s must beat recompute %.0f tok/s",
			swp.GoodputTokensPerSec, rec.GoodputTokensPerSec)
	}
}

// TestCompletionPreemptionAccounting verifies the satellite fix: every
// completed request carries its preemption count and one retry timestamp
// per recovery, under both recompute and swap policies.
func TestCompletionPreemptionAccounting(t *testing.T) {
	for _, policy := range []string{offload.PolicyRecompute, offload.PolicySwap} {
		var host int64
		if policy != offload.PolicyRecompute {
			host = 2 << 30
		}
		e := newEngine(t, oversubCfg(policy, host, 13))
		for _, r := range cotReqs(16, 13) {
			e.Submit(r)
		}
		var comps []Completion
		for e.HasWork() {
			done, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, done...)
		}
		res := e.Result()
		totalPre := 0
		for _, cp := range comps {
			if cp.Preemptions != len(cp.RetryUs) {
				t.Fatalf("%s: req %d has %d preemptions but %d retries",
					policy, cp.Req.ID, cp.Preemptions, len(cp.RetryUs))
			}
			for _, rt := range cp.RetryUs {
				if rt < cp.Req.ArrivalUs || rt > cp.DoneUs {
					t.Fatalf("%s: req %d retry at %v outside [%v,%v]",
						policy, cp.Req.ID, rt, cp.Req.ArrivalUs, cp.DoneUs)
				}
			}
			totalPre += cp.Preemptions
		}
		if totalPre == 0 {
			t.Fatalf("%s: no preemptions recorded on an oversubscribed run", policy)
		}
		if totalPre != res.Preemptions {
			t.Fatalf("%s: per-request preemptions %d != engine total %d",
				policy, totalPre, res.Preemptions)
		}
	}
}

// TestCompressSwapFewerBytesServing asserts the compress-deeper recovery
// moves fewer bytes than plain swap on the same workload, paying compressor
// time instead.
func TestCompressSwapFewerBytesServing(t *testing.T) {
	reqs := cotReqs(16, 17)
	run := func(policy string) Result {
		e := newEngine(t, oversubCfg(policy, 2<<30, 17))
		res := serveAll(t, e, reqs)
		if res.Offload.SwapOuts == 0 {
			t.Fatalf("%s: no swaps on oversubscribed run", policy)
		}
		return res
	}
	plain := run(offload.PolicySwap)
	deep := run(offload.PolicyCompressSwap)
	plainPer := float64(plain.Offload.SwapOutBytes) / float64(plain.Offload.SwapOuts)
	deepPer := float64(deep.Offload.SwapOutBytes) / float64(deep.Offload.SwapOuts)
	if deepPer >= plainPer {
		t.Fatalf("compress-swap moves %.0f B/swap, plain swap %.0f B/swap — deeper must be smaller",
			deepPer, plainPer)
	}
}

// TestHostPrefixSpillover exercises the host prefix tier: a group evicted
// from the GPU prefix cache spills to host memory and serves a later
// admission as a host-tier hit.
func TestHostPrefixSpillover(t *testing.T) {
	cfg := Config{
		Model: synth.Llama3_8B, Cluster: cluster(1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.2, LoFrac: 0.25, Seed: 19,
		PrefixCacheGroups: 1, // only one group fits on the GPU
		HostMemoryBytes:   2 << 30,
	}
	col := trace.NewCollector(0)
	cfg.Tracer = col
	e := newEngine(t, cfg)
	mk := func(id, group int, at float64) workload.Request {
		return workload.Request{
			ID: id, ArrivalUs: at, PromptLen: 1024, GenLen: 32,
			PrefixGroup: group, PrefixLen: 512,
		}
	}
	// g1 warms, g2 evicts it (spill), then g1 returns: host hit
	reqs := []workload.Request{
		mk(1, 1, 0), mk(2, 2, 30e6), mk(3, 1, 60e6),
	}
	var comps []Completion
	for _, r := range reqs {
		e.Submit(r)
	}
	for e.HasWork() {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, done...)
	}
	res := e.Result()
	if res.Offload.PrefixSpills == 0 {
		t.Fatal("evicted prefix group did not spill to the host tier")
	}
	if res.Offload.PrefixHits == 0 || res.Offload.PrefixHitTokens == 0 {
		t.Fatalf("no host prefix hits recorded: %+v", res.Offload)
	}
	if col.Summarize().Counts[trace.KindHostPrefixHit] != res.Offload.PrefixHits {
		t.Fatal("host prefix hits missing from trace")
	}
	// the returning g1 request must have been served its cached prefix
	var got bool
	for _, cp := range comps {
		if cp.Req.ID == 3 && cp.CachedPrefixTokens > 0 {
			got = true
		}
	}
	if !got {
		t.Fatal("host-tier prefix hit did not shorten the returning prompt")
	}
}

// TestOffloadConfigValidation pins the config contract: swap policies
// require the manager and a host tier.
func TestOffloadConfigValidation(t *testing.T) {
	bad := []Config{
		{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM,
			PreemptPolicy: offload.PolicySwap},
		{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM,
			HostMemoryBytes: 1 << 30},
		{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsDiffKV(0.3),
			UseManager: true, PreemptPolicy: "teleport", HostMemoryBytes: 1 << 30},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Fatalf("config %d should have been rejected", i)
		}
	}
}
