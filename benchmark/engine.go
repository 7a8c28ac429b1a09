package main

import (
	"embed"
	"math"
	"runtime"
	"time"

	"diffkv"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
)

// The workload specs are ordinary diffkv.Scenario files; embedding them
// keeps the program independent of the directory it is started from.
//
//go:embed workloads/*.json
var specs embed.FS

// rootSpan is the id of the bench.run span timedRep opens before the body.
const rootSpan = 1

// Goodput limits, the cluster layer's defaults: first token within 2 s,
// 100 ms per output token after it.
const (
	ttftLimitUs = 2e6
	tpotLimitUs = 1e5
)

// loadSpec parses a checked-in scenario and seeds it. quarter shrinks the
// request stream to a quarter for the warm-up: a closed batch by its
// request count, an open loop by its horizon.
func loadSpec(name string, seed uint64, quarter bool) (*diffkv.Scenario, error) {
	data, err := specs.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, err
	}
	sc, err := diffkv.ParseScenario(data)
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	if quarter {
		if sc.Workload.RatePerSec > 0 {
			sc.Workload.Seconds /= 4
		} else {
			sc.Workload.Requests = max(1, sc.Workload.Requests/4)
		}
	}
	return sc, nil
}

// engineWorkload drives one serving.Engine in manager mode with
// Submit + for HasWork() { Step() }: decode_heavy and prefill_churn are
// the same code on different specs.
type engineWorkload struct{ spec string }

func (w engineWorkload) prepare(seed uint64, quarter bool) (runFunc, error) {
	sc, err := loadSpec(w.spec, seed, quarter)
	if err != nil {
		return nil, err
	}
	st, err := sc.Build()
	if err != nil {
		return nil, err
	}
	reqs := st.Requests()
	return func(rec *recorder) (*repResult, error) { return driveEngine(st.Server, reqs, rec) }, nil
}

// maxSteps mirrors Engine.Drain's guard: a run that needs more has
// stopped making progress, and is reported as a failure rather than as
// whatever state the engine was in when the harness gave up.
const maxSteps = 20_000_000

func driveEngine(srv *diffkv.Server, reqs []diffkv.Request, rec *recorder) (*repResult, error) {
	res := &repResult{attempted: len(reqs), values: make(map[string]float64)}
	comps := make([]diffkv.ServingCompletion, 0, len(reqs))
	steps, promptSteps := 0, 0
	for _, r := range reqs {
		id := rec.begin("serving.submit", rootSpan, r.ID)
		srv.Submit(r)
		rec.end(id)
	}
	for srv.HasWork() && steps < maxSteps {
		id := rec.begin("serving.step.gen", rootSpan, 0)
		done, err := srv.Step()
		rec.end(id)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			// a Step is known to have been a prompt step only afterwards
			if p := srv.Result().PromptSteps; p != promptSteps {
				promptSteps = p
				rec.rename(id, "serving.step.prompt")
			}
		}
		comps = append(comps, done...)
		steps++
	}

	r, ds := srv.Result(), srv.Stats()
	if len(comps) != len(reqs) || srv.HasWork() {
		res.failf("completed %d of %d submitted (steps %d)", len(comps), len(reqs), steps)
	}
	if ds.UsedKVPages != 0 {
		res.failf("%d KV pages still in use after the engine drained", ds.UsedKVPages)
	}

	d := newDigest()
	var ttft, tpot, queue []float64
	good := 0
	for _, cp := range comps {
		d.addCompletion(cp)
		tt := cp.FirstTokenUs - cp.Req.ArrivalUs
		tp := (cp.DoneUs - cp.FirstTokenUs) / float64(cp.Req.GenLen)
		ttft, tpot, queue = append(ttft, tt/1e3), append(tpot, tp/1e3), append(queue, cp.Phases.QueueUs/1e3)
		if tt <= ttftLimitUs && tp <= tpotLimitUs {
			good++
		}
	}
	res.digest = d.sum()
	res.spans = len(reqs) + steps

	v := res.values
	v["sim_tok_per_s"] = r.Throughput
	if p, ok := highestPctl(len(ttft)); ok && p >= 0.99 {
		v["sim_ttft_p99_ms"] = quantile(ttft, 0.99)
	}
	v["sim_tpot_p50_ms"] = median(tpot)
	v["sim_goodput_frac"] = float64(good) / float64(len(reqs))
	v["serving.steps"] = float64(steps)
	v["serving.avg_batch"] = r.AvgBatch
	v["serving.preemptions"] = float64(r.Preemptions)
	v["serving.leaked_kv_pages"] = float64(ds.UsedKVPages)
	v["serving.sim_queue_ms_p50"] = median(queue)
	total := float64(r.Prompt.Total() + r.Gen.Total())
	v["serving.sim_scheduler_frac"] = float64(r.Prompt.Scheduler+r.Gen.Scheduler) / total
	v["serving.sim_memmgmt_frac"] = float64(r.Prompt.MemMgmt+r.Gen.MemMgmt) / total
	v["serving.sim_compressor_frac"] = float64(r.Prompt.Compressor+r.Gen.Compressor) / total
	v["serving.sim_modelexec_frac"] = float64(r.Prompt.ModelExec+r.Gen.ModelExec) / total
	v["serving.sim_offload_frac"] = float64(r.Prompt.Offload+r.Gen.Offload) / total
	v["offload.swap_outs"] = float64(r.Offload.SwapOuts)
	v["offload.swap_ins"] = float64(r.Offload.SwapIns)
	v["offload.thrash_events"] = float64(r.Offload.ThrashEvents)
	v["offload.prefix_spills"] = float64(r.Offload.PrefixSpills)
	v["offload.prefix_hits"] = float64(r.Offload.PrefixHits)

	if rec != nil {
		gen, prompt := rec.durations("serving.step.gen"), rec.durations("serving.step.prompt")
		all := append(append([]float64(nil), gen...), prompt...)
		v["serving.step_us_p50"] = median(all)
		v["serving.step_us_p99"] = quantile(all, 0.99)
		v["serving.prompt_step_us_p50"] = median(prompt)
		v["serving.submit_us"] = mean(rec.durations("serving.submit"))
		res.notef("serving.Step        %s", timing(all, "us"))
		res.notef("serving.Step gen    %s", timing(gen, "us"))
		res.notef("serving.Step prompt %s", timing(prompt, "us"))
	}
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probes calls kvcache directly with the shapes the workload gave the
// engine: the engine's own page pool, its average batch of sequences, its
// mean prompt length, and per-head tier probabilities drawn the way the
// engine draws them.
func (w engineWorkload) probes(seed uint64, _ *recorder, out map[string]float64) error {
	sc, err := loadSpec(w.spec, seed, false)
	if err != nil {
		return err
	}
	st, err := sc.Build()
	if err != nil {
		return err
	}
	probeWorkload(st, out)

	ds := st.Server.Stats()
	cfg := kvcache.Config{
		Dim:       st.Model.HeadDim,
		PageBytes: 65536, // serving.Config's default, which Scenario.Build keeps
		NumPages:  ds.FreeKVPages + ds.UsedKVPages,
		MaxSeqLen: st.Model.MaxSeqLen,
	}
	heads := st.Model.Layers * st.Model.KVHeads
	batch := int(math.Round(out["serving.avg_batch"]))
	var promptLen int
	reqs := st.Requests()
	for _, r := range reqs {
		promptLen += r.PromptLen
	}
	promptLen /= len(reqs)
	setup := st.Method.(diffkv.CompressionHook).Compression()

	var newMgr []float64
	var mgr *kvcache.Manager
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if mgr, err = kvcache.NewManager(cfg); err != nil {
			return err
		}
		newMgr = append(newMgr, time.Since(t0).Seconds()*1e3)
	}
	out["kvcache.new_manager_ms"] = median(newMgr)

	// per-head tier fractions, as serving.Engine.registerSeq draws them
	rng := mathx.NewRNG(seed)
	hiF, loF := make([]float64, heads), make([]float64, heads)
	for h := range hiF {
		hiF[h] = mathx.Clamp(setup.HiFrac*rng.LogNorm(0, 0.3), 0.02, 0.9)
		loF[h] = mathx.Clamp(setup.LoFrac*rng.LogNorm(0, 0.3), 0, 0.9-hiF[h])
	}
	prompt := make([]kvcache.HeadDemand, heads)
	for h := range prompt {
		prompt[h] = kvcache.HeadDemand{HiTokens: int(hiF[h] * float64(promptLen)), LoTokens: int(loF[h] * float64(promptLen))}
	}

	// admit / prompt-compact / release, in rounds of one batch until at
	// least 200 sequences have gone through; the last round stays resident
	// for the generation probe
	var addNs, promptNs, releaseNs time.Duration
	seqs := 0
	for round := 0; seqs < 200; round++ {
		for i := 0; i < batch; i++ {
			t0 := time.Now()
			if _, err := mgr.AddSequence(i+1, heads); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := mgr.PromptCompact(i+1, promptLen, prompt); err != nil {
				return err
			}
			addNs, promptNs = addNs+t1.Sub(t0), promptNs+time.Since(t1)
		}
		seqs += batch
		if seqs >= 200 {
			break
		}
		for i := 0; i < batch; i++ {
			t0 := time.Now()
			if err := mgr.ReleaseSequence(i + 1); err != nil {
				return err
			}
			releaseNs += time.Since(t0)
		}
	}
	out["kvcache.add_sequence_us"] = float64(addNs.Microseconds()) / float64(seqs)
	out["kvcache.prompt_compact_us"] = float64(promptNs.Microseconds()) / float64(seqs)
	out["kvcache.release_us"] = float64(releaseNs.Microseconds()) / float64(seqs-batch)

	// steady generation: every head's candidate lands by tier probability
	const genCalls = 200
	ids := make([]int, batch)
	demands := make([][]kvcache.GenDemand, batch)
	for i := range ids {
		ids[i] = i + 1
		demands[i] = make([]kvcache.GenDemand, heads)
	}
	var pages int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var genNs time.Duration
	for call := 0; call < genCalls; call++ {
		// drawing the demands allocates nothing, so every allocation
		// between the two MemStats reads is GenCompact's
		for i := range demands {
			for h := range demands[i] {
				demands[i][h] = kvcache.GenDemand{}
				switch u := rng.Float64(); {
				case u < hiF[h]:
					demands[i][h].HiDelta = 1
				case u < hiF[h]+loF[h]:
					demands[i][h].LoDelta = 1
				}
			}
		}
		t0 := time.Now()
		cs, err := mgr.GenCompact(ids, demands)
		genNs += time.Since(t0)
		if err != nil {
			return err
		}
		pages += cs.PagesAllocated
	}
	runtime.ReadMemStats(&m1)
	mallocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	out["kvcache.gen_compact_us"] = float64(genNs.Microseconds()) / genCalls
	out["kvcache.gen_compact_allocs"] = float64(mallocs / genCalls) // whole allocations, as testing.AllocsPerRun counts them
	out["kvcache.gen_compact_kb"] = float64(bytes) / 1024 / genCalls
	out["kvcache.pages_per_gen_call"] = float64(pages) / genCalls

	// memory reserved against memory in use: tokens held over the token
	// capacity of the pages holding them
	var held, capacity int
	capHi, capLo := mgr.TokensPerHiPage(), mgr.TokensPerLoPage()
	var counts []kvcache.HeadDemand
	for _, id := range ids {
		if counts, err = mgr.HeadCounts(id, counts); err != nil {
			return err
		}
		for _, c := range counts {
			held += c.HiTokens + c.LoTokens
			capacity += (c.HiTokens+capHi-1)/capHi*capHi + (c.LoTokens+capLo-1)/capLo*capLo
		}
	}
	out["kvcache.page_fill_frac"] = float64(held) / float64(capacity)

	// the coordination phase alone: one batch allocation across 8,192 heads
	const allocHeads, allocCalls = 8192, 200
	fl := kvcache.NewFreeList(cfg.NumPages)
	want := make([]int32, allocHeads)
	for i := range want {
		want[i] = int32(i % 3)
	}
	var allocNs time.Duration
	for call := 0; call < allocCalls; call++ {
		t0 := time.Now()
		got, err := fl.AllocBatch(want)
		allocNs += time.Since(t0)
		if err != nil {
			return err
		}
		fl.RecycleBatch(got)
	}
	out["kvcache.alloc_batch_us"] = float64(allocNs.Microseconds()) / allocCalls
	return nil
}

// probeWorkload times the request generator and the prompt block hashing
// every routed request pays.
func probeWorkload(st *diffkv.Stack, out map[string]float64) {
	t0 := time.Now()
	reqs := st.Requests()
	out["workload.gen_us_per_req"] = time.Since(t0).Seconds() * 1e6 / float64(len(reqs))
	n := min(len(reqs), 20000)
	var sink int
	t0 = time.Now()
	for _, r := range reqs[:n] {
		sink += len(r.BlockHashes(64))
	}
	out["workload.block_hashes_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	_ = sink
}
