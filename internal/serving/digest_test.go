package serving

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"strings"
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
		exp.XferUs = float64(d.Device().NIC.Transfer(float64(exp.Bytes)))
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

// sessionStream opens one session per request on a swap-policy manager
// engine and hashes every TokenUpdate as it streams. Two sessions end
// early: one by Session.Cancel between steps once it is mid-generation,
// one by its context, cancelled from another session's token callback
// and reaped at the next step.
func sessionStream(t *testing.T, h hash.Hash) {
	e := newEngine(t, oversubCfg(offload.PolicySwap, 2<<30, 41))
	reqs := cotReqs(12, 41)
	sess := make([]*Session, len(reqs))
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	for i, r := range reqs {
		c := context.Background()
		if i == 7 {
			c = ctx
		}
		s, err := e.Open(c, r)
		if err != nil {
			t.Fatal(err)
		}
		s.OnToken(func(u TokenUpdate) {
			fmt.Fprintf(h, "tok %+v\n", u)
			if i == 2 && u.Generated == 90 {
				stop()
			}
		})
		sess[i] = s
	}
	var comps []Completion
	for e.HasWork() {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, done...)
		if s := sess[4]; !s.Finished() && s.Generated() >= 60 {
			s.Cancel()
		}
	}
	cancelled := 0
	for _, s := range sess {
		_, err := s.Completion()
		if errors.Is(err, ErrCancelled) {
			cancelled++
		}
		fmt.Fprintf(h, "sess %d %d %v\n", s.ID(), s.Generated(), err)
	}
	res := e.Result()
	if cancelled != 2 || e.CancelledSessions() != 2 || res.Preemptions == 0 || len(comps) != len(reqs)-2 {
		t.Fatalf("run does not exercise what it pins: %d cancelled, %d done, %+v", cancelled, len(comps), res)
	}
	digestRun(h, comps, res)
}

// crashReadmit crashes a swap-policy manager engine twice mid-run, once
// keeping its swapped sequences and once dropping them, restarts it and
// readmits each crash's orphans onto it, then drains.
func crashReadmit(t *testing.T, h hash.Hash) {
	cfg := oversubCfg(offload.PolicySwap, 2<<30, 43)
	cfg.PrefixCacheGroups = 2
	e := newEngine(t, cfg)
	reqs := sharedCoT(20, 43)
	for _, r := range reqs {
		e.Submit(r)
	}
	var comps []Completion
	for _, keepSwapped := range []bool{true, false} {
		comps = append(comps, stepUntil(t, e, func() bool { return len(e.swappedQ) >= 1 && len(e.running) >= 2 })...)
		if len(e.swappedQ) == 0 {
			t.Fatalf("run swapped nothing before crash (keepSwapped %v)", keepSwapped)
		}
		crashUs := float64(e.Clock()) + 700
		rep, err := e.Crash(crashUs, keepSwapped)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "crash %v %d %d %v\n", keepSwapped, len(rep.Orphans), rep.LostKVBytes, e.SwappedIDs())
		restartUs := crashUs + 40_000
		e.Restart(restartUs)
		for _, o := range rep.Orphans {
			fmt.Fprintf(h, "orphan %d %+v %v\n", o.Req.ID, o.Phases, o.RetryUs)
			if err := e.Readmit(o, restartUs); err != nil {
				t.Fatal(err)
			}
		}
	}
	comps = append(comps, drainCompletions(t, e)...)
	res := e.Result()
	if len(comps) != len(reqs) || res.Offload.SwapIns == 0 || e.LostKVBytes() == 0 {
		t.Fatalf("run does not exercise what it pins: %d of %d done, %+v", len(comps), len(reqs), res)
	}
	digestRun(h, comps, res)
}

// TestEngineDigestPinned pins the engine's simulated behaviour bit for
// bit on both KV stores: any change to admission order, RNG draw order,
// float evaluation order, preemption, swap, prefix or handoff accounting
// moves a digest. The constants were recorded before the engine was
// split behind the kvStore seam and must only change with a PR that
// means to change simulated behaviour. The manager-mode rows run under
// GOMAXPROCS 1 and 2 against the same constants; manager-fanout's batch
// is large enough for a step to fan out its tier draws and page plan,
// and its constant was recorded from the serial code before the fan-out.
// session-stream and crash-readmit pin the session, cancel and crash
// paths; their constants were recorded from the engine that still split
// and swept its whole batch every step.
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
	// a pool that holds 52 of 64 requests at once: steps fan out while
	// the batch holds 48 or more, and out-of-pages preemptions retry a
	// step whose draws have already moved the stream
	fanOut := oversubCfg(offload.PolicyRecompute, 0, 31)
	fanOut.MemoryReserve, fanOut.MaxGenLen = 0.95, 512
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
		{"manager-fanout", "a41b4608b60556412f6bc837ee26dacd0a2437e7d22a114272c8d4c1363c51fb",
			single(fanOut, cotReqs(64, 31), func(e *Engine, r Result) bool {
				ps := e.kv.(*pageStore) // its scratch is sized by the largest generation batch
				return r.Preemptions > 0 && cap(ps.genIDs)*ps.heads >= parallelDraws
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
		{"session-stream", "9d6ec7a22aac9a1d4df1d563e5ab129062dc8ad15ec4a8b338704b3236806c5d", sessionStream},
		{"crash-readmit", "7b72b26f49bd2444be88eff286edbc8e4e3e5a398f1a2ec6718556b7801f9422", crashReadmit},
	} {
		check := func(t *testing.T) {
			h := sha256.New()
			tc.run(t, h)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
				t.Fatalf("digest %s, pinned %s", got, tc.want)
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(tc.name, "manager") {
				check(t)
				return
			}
			// a large manager-mode step fans its tier draws and page plan
			// out on mathx.ForEach; the worker count must not move a bit
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					check(t)
				})
			}
		})
	}
}
