package serving

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/offload"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// checkBatchView compares the engine's maintained batch view with a scan
// of e.running: the running order is the stamp order; the prompt-phase
// list is the running members whose prompt has not run, in running
// order; the generation heaps hold exactly the other members, keyed on
// their current progress; longest is the scan's largest token count; and
// no member is due, since every step's sweep takes its finishers out.
// The finisher heap is read whole by moving the round past every due
// round, and the longest-member heap by emptying it; both are restored.
func checkBatchView(t *testing.T, e *Engine) {
	t.Helper()
	b := &e.batch
	var prompting, generating []*seqState
	var offsets []int
	longest := 0
	for i, st := range e.running {
		if i > 0 && st.stamp <= e.running[i-1].stamp {
			t.Fatalf("running member %d (stamp %d) follows stamp %d", st.req.ID, st.stamp, e.running[i-1].stamp)
		}
		if !st.promptDone {
			if st.gen != 0 {
				t.Fatalf("prompt-phase member %d is in the generation heaps", st.req.ID)
			}
			prompting = append(prompting, st)
			continue
		}
		if st.gen == 0 || b.recs[st.gen-1] != st {
			t.Fatalf("generation member %d is not in the generation heaps", st.req.ID)
		}
		k := b.keys[st.gen-1]
		if k.stamp != st.stamp || k.due != b.round+st.req.GenLen-st.generated || k.offset != st.tokens()-b.round {
			t.Fatalf("member %d keyed %+v at round %d; stamp %d, %d of %d generated, %d tokens",
				st.req.ID, k, b.round, st.stamp, st.generated, st.req.GenLen, st.tokens())
		}
		if st.generated >= st.req.GenLen {
			t.Fatalf("member %d finished (%d of %d) but outlived the sweep", st.req.ID, st.generated, st.req.GenLen)
		}
		generating = append(generating, st)
		offsets = append(offsets, k.offset)
		longest = max(longest, st.tokens())
	}
	if !slices.Equal(b.prompting, prompting) {
		t.Fatalf("prompt-phase list holds %d records, the scan finds %d", len(b.prompting), len(prompting))
	}
	if held := len(b.recs) - len(b.free); held != len(generating) {
		t.Fatalf("generation heaps hold %d IDs, the scan finds %d members", held, len(generating))
	}
	if got := b.longest(); got != longest {
		t.Fatalf("longest %d, the scan's %d", got, longest)
	}
	if fin := b.finishers(); len(fin) != 0 {
		t.Fatalf("%d members due between steps", len(fin))
	}
	if b.due == nil {
		if len(generating) > 0 {
			t.Fatal("generation members but no heaps")
		}
		return
	}
	round := b.round
	b.round = math.MaxInt / 2
	all := slices.Clone(b.finishers())
	for _, st := range all {
		b.refile(st)
	}
	b.round = round
	if !slices.Equal(all, generating) {
		t.Fatalf("finisher heap holds %d members, the scan finds %d (or their order differs)", len(all), len(generating))
	}
	var ids, heapOffsets []int
	for {
		id, ok := b.long.Top()
		if !ok {
			break
		}
		b.long.Remove(id)
		ids = append(ids, id)
		heapOffsets = append(heapOffsets, b.keys[id].offset)
	}
	for _, id := range ids {
		b.long.Set(id)
	}
	slices.Sort(offsets)
	slices.Reverse(offsets)
	if !slices.Equal(heapOffsets, offsets) {
		t.Fatalf("longest-member heap offsets %v, the scan's %v", heapOffsets, offsets)
	}
}

// liveByID indexes every record the engine holds before a step: any
// record that completes in the step is one of them.
func liveByID(e *Engine) map[int]*seqState {
	m := make(map[int]*seqState, len(e.live))
	for id, st := range e.live {
		m[id] = st
	}
	return m
}

// checkCompletions requires that a step completed only finished records
// (prompt run, GenLen generated), in running order.
func checkCompletions(t *testing.T, before map[int]*seqState, done []Completion) {
	t.Helper()
	for i, cp := range done {
		st := before[cp.Req.ID]
		if st == nil {
			t.Fatalf("completed request %d was not on the engine before the step", cp.Req.ID)
		}
		if !st.promptDone || st.generated < st.req.GenLen {
			t.Fatalf("request %d completed with %d of %d generated", cp.Req.ID, st.generated, st.req.GenLen)
		}
		if i > 0 && st.stamp <= before[done[i-1].Req.ID].stamp {
			t.Fatalf("request %d completed out of running order", cp.Req.ID)
		}
	}
}

// TestEngineStateMatchesBruteForce drives the engine through every path
// that moves a record into, through or out of the running batch, with
// checkBatchView and checkCompletions after every Step (stepUntil) and
// after every call made between steps: recompute, swap and compress-swap
// preemption; crashes keeping and dropping swapped sequences, restart and
// readmission; sessions cancelled from a token callback, directly and by
// context; disaggregated adoption, including a sequence adopted past its
// generation budget; requests that generate nothing; and traits-mode
// sequences longer than the attention split.
func TestEngineStateMatchesBruteForce(t *testing.T) {
	submit := func(e *Engine, reqs []workload.Request) {
		for _, r := range reqs {
			e.Submit(r)
		}
	}
	t.Run("preemption", func(t *testing.T) {
		for _, policy := range offload.Policies() {
			hostBytes := int64(2 << 30)
			if policy == offload.PolicyRecompute {
				hostBytes = 0
			}
			cfg := oversubCfg(policy, hostBytes, 11)
			cfg.PrefixCacheGroups = 2
			e := newEngine(t, cfg)
			reqs := sharedCoT(20, 11)
			submit(e, reqs)
			comps := drainCompletions(t, e)
			res := e.Result()
			if len(comps) != len(reqs) || res.Preemptions == 0 || (hostBytes > 0) != (res.Offload.SwapIns > 0) {
				t.Fatalf("%s: %d of %d done, %+v", policy, len(comps), len(reqs), res)
			}
		}
	})
	t.Run("crash-readmit", func(t *testing.T) {
		e := newEngine(t, oversubCfg(offload.PolicySwap, 2<<30, 43))
		reqs := cotReqs(20, 43)
		submit(e, reqs)
		done := 0
		for _, keepSwapped := range []bool{true, false} {
			done += len(stepUntil(t, e, func() bool { return len(e.swappedQ) >= 1 && len(e.running) >= 2 }))
			rep, err := e.Crash(float64(e.Clock())+700, keepSwapped)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchView(t, e)
			e.Restart(float64(e.Clock()) + 40_000)
			for _, o := range rep.Orphans {
				if err := e.Readmit(o, float64(e.Clock())); err != nil {
					t.Fatal(err)
				}
			}
			checkBatchView(t, e)
		}
		if done += len(drainCompletions(t, e)); done != len(reqs) {
			t.Fatalf("%d of %d done", done, len(reqs))
		}
	})
	t.Run("session-cancel", func(t *testing.T) {
		e := newEngine(t, oversubCfg(offload.PolicySwap, 2<<30, 41))
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		var sess []*Session
		for i, r := range cotReqs(12, 41) {
			c := context.Background()
			if i == 5 {
				c = ctx
			}
			s, err := e.Open(c, r)
			if err != nil {
				t.Fatal(err)
			}
			sess = append(sess, s)
		}
		// one session cancels itself and one another from token callbacks
		sess[2].OnToken(func(u TokenUpdate) {
			if u.Generated == 300 {
				sess[2].Cancel()
				sess[9].Cancel()
			}
		})
		sess[3].OnToken(func(u TokenUpdate) {
			if u.Generated == 500 {
				stop()
			}
		})
		stepUntil(t, e, func() bool { return sess[1].Generated() >= 200 })
		sess[1].Cancel() // between steps, mid-generation
		checkBatchView(t, e)
		drainCompletions(t, e)
		cancelled := 0
		for _, s := range sess {
			if _, err := s.Completion(); errors.Is(err, ErrCancelled) {
				cancelled++
			}
		}
		if cancelled != 4 || e.CancelledSessions() != 4 {
			t.Fatalf("%d sessions cancelled, the engine counts %d", cancelled, e.CancelledSessions())
		}
	})
	t.Run("adoption", func(t *testing.T) {
		// the decode side caps generation at one token, which the prefill
		// side has already produced: every adoption arrives due
		for _, maxGen := range []int{2048, 1} {
			dec := oversubCfg(offload.PolicyRecompute, 0, 24)
			dec.MaxGenLen = maxGen
			p, d := newEngine(t, oversubCfg(offload.PolicyRecompute, 0, 23)), newEngine(t, dec)
			reqs := cotReqs(16, 23)
			for _, r := range reqs {
				child := r
				child.GenLen = 1
				p.Submit(child)
				p.MarkHandoff(r.ID, r.GenLen)
			}
			for _, cp := range drainCompletions(t, p) {
				exp, _ := p.TakeExport(cp.Req.ID)
				if err := d.SubmitPrefilled(exp, exp.AsOfUs); err != nil {
					t.Fatal(err)
				}
			}
			if comps := drainCompletions(t, d); len(comps) != len(reqs) {
				t.Fatalf("decode side completed %d of %d", len(comps), len(reqs))
			}
		}
	})
	t.Run("traits", func(t *testing.T) {
		// GenLen 0 requests complete at their prompt step; prompts past
		// 8192 tokens make the attention kernel split
		cfg := Config{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM, Seed: 3}
		e := newEngine(t, cfg)
		reqs := workload.NewRequestGen(workload.GSM8K, 512, 3).Poisson(20, 4)
		for i := range reqs {
			switch i % 7 {
			case 0:
				reqs[i].GenLen = 0
			case 3:
				reqs[i].PromptLen = 9000 + 100*i
			}
		}
		submit(e, reqs)
		if comps := drainCompletions(t, e); len(comps) != len(reqs) {
			t.Fatalf("%d of %d done", len(comps), len(reqs))
		}
	})
}
