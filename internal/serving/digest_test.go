package serving

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/offload"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// digestRun folds every completion's latency-defining fields and the
// engine's Result into h. Floats print in their shortest round-trip
// form, so any bit of drift changes the digest.
func digestRun(h hash.Hash, comps []Completion, res Result) {
	for _, cp := range comps {
		fmt.Fprintf(h, "%d %v %v %d %v %+v %d\n", cp.Req.ID, cp.FirstTokenUs, cp.DoneUs,
			cp.Preemptions, cp.RetryUs, cp.Phases, cp.CachedPrefixTokens)
	}
	fmt.Fprintf(h, "%+v\n", res)
}

// sharedCoT is a long-generation list whose requests arrive 40 ms apart
// and cycle through four prefix groups — more groups than the GPU prefix
// cache holds, so evictions spill to the host tier and later admissions
// promote them back.
func sharedCoT(n int, seed uint64) []workload.Request {
	reqs := cotReqs(n, seed)
	for i := range reqs {
		reqs[i].ArrivalUs = float64(i) * 40_000
		reqs[i].PrefixGroup, reqs[i].PrefixLen = 1+i%4, 128
		reqs[i].PromptLen = max(reqs[i].PromptLen, 160)
	}
	return reqs
}

// handoffPair runs reqs through a prefill engine and a decode engine the
// way the cluster's disaggregation does: prefill children (GenLen 1)
// marked for handoff, their exports priced on the receiver's NIC and
// delivered in due order, the decode side adopting the shipped shape.
func handoffPair(t *testing.T, h hash.Hash, pre, dec Config, reqs []workload.Request) {
	t.Helper()
	p, d := newEngine(t, pre), newEngine(t, dec)
	for _, r := range reqs {
		child := r
		child.GenLen = 1
		p.Submit(child)
		p.MarkHandoff(r.ID, r.GenLen)
	}
	var wire []*KVExport
	for _, cp := range drainCompletions(t, p) {
		exp, ok := p.TakeExport(cp.Req.ID)
		if !ok {
			t.Fatalf("prefill child %d left no export", cp.Req.ID)
		}
		exp.XferUs = float64(d.Device().NICTransfer(float64(exp.Bytes)))
		wire = append(wire, exp)
		fmt.Fprintf(h, "ship %d %d %d\n", exp.Req.ID, exp.Bytes, len(exp.Counts))
	}
	sort.SliceStable(wire, func(i, j int) bool {
		return wire[i].AsOfUs+wire[i].XferUs < wire[j].AsOfUs+wire[j].XferUs
	})
	for _, exp := range wire {
		if err := d.SubmitPrefilled(exp, exp.AsOfUs+exp.XferUs); err != nil {
			t.Fatal(err)
		}
	}
	comps := drainCompletions(t, d)
	if len(comps) != len(reqs) {
		t.Fatalf("decode side completed %d of %d", len(comps), len(reqs))
	}
	digestRun(h, nil, p.Result())
	digestRun(h, comps, d.Result())
	if liveRecords(t, p)+liveRecords(t, d) != 0 || p.Stats().UsedKVPages+d.Stats().UsedKVPages != 0 {
		t.Fatal("handoff pair did not drain")
	}
}

// TestEngineDigestPinned pins the engine's simulated behaviour bit for
// bit on both KV stores: any change to admission order, RNG draw order,
// float evaluation order, preemption, swap, prefix or handoff accounting
// moves a digest. The constants were recorded before the engine was
// split behind the kvStore seam and must only change with a PR that
// means to change simulated behaviour.
func TestEngineDigestPinned(t *testing.T) {
	vllm := Config{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM,
		MemoryReserve: 0.97, Seed: 8}
	kivi, quest := vllm, vllm
	kivi.Traits, quest.Traits = baselines.TraitsKIVI, baselines.TraitsQuest
	hostCfg := func(policy string) Config {
		cfg := oversubCfg(policy, 2<<30, 11)
		cfg.PrefixCacheGroups = 2
		return cfg
	}
	brown := oversubCfg(offload.PolicyRecompute, 0, 19)
	brown.BrownoutQueueDepth = 4
	single := func(cfg Config, reqs []workload.Request, check func(*Engine, Result) bool) func(*testing.T, hash.Hash) {
		return func(t *testing.T, h hash.Hash) {
			e := newEngine(t, cfg)
			for _, r := range reqs {
				e.Submit(r)
			}
			comps := drainCompletions(t, e)
			res := e.Result()
			if len(comps) != len(reqs) || !check(e, res) {
				t.Fatalf("run does not exercise what it pins: %d of %d done, %+v", len(comps), len(reqs), res)
			}
			digestRun(h, comps, res)
		}
	}
	poisson := workload.NewRequestGen(workload.GSM8K, 512, 8).Poisson(6, 20)
	for _, tc := range []struct {
		name, want string
		run        func(*testing.T, hash.Hash)
	}{
		{"traits-vllm", "40315dc79023d2cc6eb571a1077f222f1f927a8e98936cf6f228452ef3a1f375",
			single(vllm, poisson, func(_ *Engine, r Result) bool { return r.GenSteps > 0 })},
		{"traits-kivi", "78c74a32a20b0e0166b7d1bef8df8df33ac9771ebd2ab7fea6aed8d415f0ba19",
			single(kivi, poisson, func(_ *Engine, r Result) bool { return r.Prompt.Compressor > 0 })},
		{"traits-quest", "75b7849b5fa46db23dd4a7331432f73a27e47f393037c4aee39a904b57cd1d4e",
			single(quest, poisson, func(_ *Engine, r Result) bool { return r.Prompt.Compressor == 0 })},
		{"manager-recompute", "9312ca27d9a634539de173574716b9e0a6ef17cee4cd1fc5779f7a4605a6b36c",
			single(oversubCfg(offload.PolicyRecompute, 0, 11), cotReqs(20, 11),
				func(_ *Engine, r Result) bool { return r.Preemptions > 0 })},
		{"manager-swap-prefix", "664648cd2b572a7748a5837bd79fb71dfa36da64a3758f5e27a35f83fcff03c6",
			single(hostCfg(offload.PolicySwap), sharedCoT(20, 11), func(_ *Engine, r Result) bool {
				return r.Offload.SwapIns > 0 && r.Offload.PrefixSpills > 0 && r.Offload.PrefixHits > 0
			})},
		{"manager-compress-swap-prefix", "48d6cea128e0534caff3771dfb96c3980c76b27da53aaa2c5ed8dfd3c5da3dc7",
			single(hostCfg(offload.PolicyCompressSwap), sharedCoT(20, 11), func(_ *Engine, r Result) bool {
				return r.Offload.SwapIns > 0 && r.Offload.PrefixSpills > 0 && r.Offload.PrefixHits > 0
			})},
		{"manager-brownout", "16147b8cc92418bf24c6f3943263fbc3d4f3c08aa3d62a27ccbcfbbbf35cf95c",
			single(brown, cotReqs(16, 19), func(e *Engine, _ Result) bool { return e.BrownoutAdmits() > 0 })},
		{"handoff-traits", "034e0e38932c1bd041dbd3f302ca1e29b771ecada6d2b6a7d42afcaa7b28d5b6", func(t *testing.T, h hash.Hash) {
			handoffPair(t, h, vllm, vllm, poisson)
		}},
		{"handoff-manager", "768c1624942953fe952006812d0b2bbbcf98b169dc24d002497eb9d40ffe84ed", func(t *testing.T, h hash.Hash) {
			handoffPair(t, h, oversubCfg(offload.PolicyRecompute, 0, 23),
				oversubCfg(offload.PolicyRecompute, 0, 24), cotReqs(16, 23))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			tc.run(t, h)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
				t.Fatalf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
