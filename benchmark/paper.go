package main

import (
	"flag"
	"testing"

	"diffkv"
	"diffkv/internal/benchkernels"
	"diffkv/internal/mathx"
	"diffkv/internal/synth"
)

// paperWorkload is paper_tables, the reproduction path: four of the
// paper's tables and figures in fast mode, then two fixed sequences
// through the core engine for the headline compression and fidelity
// numbers. None of the serving stack runs.
type paperWorkload struct{}

// paperExperiments are run in this order; the warm-up runs the two
// cheapest (about a quarter of the whole).
var (
	paperExperiments  = []string{"tab1", "fig8", "fig9", "fig12"}
	warmupExperiments = []string{"fig8", "fig9"}
)

// paperSequences are the two RunSequence calls: the paper's default
// serving shape, and a thinking model's short prompt with a long decode.
var paperSequences = []struct {
	model          string
	prompt, genLen int
}{
	{"Llama3-8B", 384, 768},
	{"QwQ-32B", 256, 2048},
}

func (paperWorkload) prepare(seed uint64, quarter bool) (runFunc, error) {
	engines := make([]*diffkv.Engine, len(paperSequences))
	for i, s := range paperSequences {
		model, err := diffkv.ModelByName(s.model)
		if err != nil {
			return nil, err
		}
		if engines[i], err = diffkv.NewEngine(diffkv.EngineConfig{
			Model: model, Params: diffkv.DefaultParams(s.model), Seed: seed,
		}); err != nil {
			return nil, err
		}
	}
	ids := paperExperiments
	if quarter {
		ids, engines = warmupExperiments, nil
	}
	return func(rec *recorder) (*repResult, error) { return drivePaper(seed, ids, engines, rec) }, nil
}

func drivePaper(seed uint64, ids []string, engines []*diffkv.Engine, rec *recorder) (*repResult, error) {
	res := &repResult{attempted: len(ids) + len(engines), values: make(map[string]float64)}
	d := newDigest()
	v := res.values
	opts := diffkv.ExperimentOpts{Fast: true, Reps: 1, Workers: 1, Seed: seed}
	for _, id := range ids {
		sp := rec.begin("experiments."+id, rootSpan, 0)
		tables, err := diffkv.RunExperiment(id, opts)
		ns := rec.end(sp)
		if err != nil {
			return nil, err
		}
		if len(tables) == 0 {
			res.failf("experiment %s returned no table", id)
		}
		for _, t := range tables {
			d.add("%s|", t.String())
		}
		if rec != nil {
			v["experiments."+id+"_ms"] = float64(ns) / 1e6
		}
	}
	var seqNs int64
	for i, e := range engines {
		s := paperSequences[i]
		sp := rec.begin("core.run_sequence", rootSpan, i+1)
		r, err := e.RunSequence(s.prompt, s.genLen, seed)
		seqNs += rec.end(sp)
		if err != nil {
			return nil, err
		}
		if r.Probes == 0 || r.MemFrac <= 0 || r.MemFrac >= 1 {
			res.failf("%s %d/%d: mem frac %v over %d probes is not a compression", s.model, s.prompt, s.genLen, r.MemFrac, r.Probes)
		}
		d.add("%x %x %d|", r.MemFrac, r.OutputErr, r.Probes)
		v["kv_mem_frac"] += r.MemFrac / float64(len(engines))
		v["attn_output_err"] += r.OutputErr / float64(len(engines))
	}
	if rec != nil {
		v["core.run_sequence_ms"] = float64(seqNs) / 1e6 / float64(len(engines))
	}
	res.digest = d.sum()
	return res, nil
}

// probes runs the kernel micro-benchmarks the repository already has
// (internal/benchkernels, shared with bench_test.go and diffkv-bench), so
// the kernels' workloads exist once.
func (paperWorkload) probes(seed uint64, _ *recorder, out map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", "300ms"); err != nil {
		return err
	}
	nsPerOp := func(fn func(*testing.B)) (float64, int64) {
		r := testing.Benchmark(fn)
		return float64(r.T.Nanoseconds()) / float64(r.N), r.AllocsPerOp()
	}
	out["quant.quantize_k8_ns"], _ = nsPerOp(benchkernels.QuantizeK8)
	out["quant.dequant_dot_k4_ns"], _ = nsPerOp(benchkernels.DequantDotK4)
	out["quant.dequant_axpy_v2_ns"], _ = nsPerOp(benchkernels.DequantAxpyV2)
	out["quant.dequant_dot_slots_page_ns"], _ = nsPerOp(benchkernels.DequantDotSlotsPage)
	ns, allocs := nsPerOp(benchkernels.CompressedAttention1K)
	out["attention.compressed_1k_us"], out["attention.compressed_1k_allocs"] = ns/1e3, float64(allocs)
	ns, _ = nsPerOp(benchkernels.GenPolicyStep)
	out["policy.gen_step_us"] = ns / 1e3
	// the root bench_test.go's BenchmarkSynthGenHead512 body: benchkernels
	// has no synth entry and a _test file cannot be imported
	ns, _ = nsPerOp(func(b *testing.B) {
		rng := mathx.NewRNG(seed)
		prof := synth.Profile(synth.Llama3_8B, 8, 0, 1, rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			synth.GenHead(synth.Llama3_8B, prof, 512, rng)
		}
	})
	out["synth.gen_head_512_us"] = ns / 1e3
	return nil
}
