package experiments

import (
	"fmt"

	"diffkv/internal/baselines"
	"diffkv/internal/core"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/stats"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// evalBaseline measures a baseline method's (error, memory) on a
// (model, benchmark) pair across several heads, then maps through the
// accuracy model.
func evalBaseline(m baselines.Method, model *synth.ModelConfig, bench *workload.Benchmark, reps int, seed uint64, o Opts) (acc, mem float64) {
	promptLen, genLen := bench.EvalLen()
	n := promptLen + genLen
	root := mathx.NewRNG(seed)
	errs := make([]float64, reps)
	mems := make([]float64, reps)
	o.forEach(reps, func(rep int) {
		method := m
		rng := root.SplitAt(uint64(rep))
		prof := synth.Profile(model, (rep*11)%model.Layers, rep%model.KVHeads, bench.DensityScale, rng)
		data := synth.GenHead(model, prof, n, rng.SplitAt(1))
		sig := data.CheapSignificance(model, rng.SplitAt(2))
		// SnapKV needs the prompt boundary
		if sk, ok := method.(baselines.SnapKV); ok {
			sk.PromptLen = promptLen
			method = sk
		}
		r := method.Evaluate(model, data, sig, 8, rng.SplitAt(3))
		errs[rep] = r.OutputErr
		mems[rep] = r.MemFrac
	})
	memSum := meanOf(mems)
	// Heads are complementary: a method that ruins some heads (e.g.
	// DuoAttention's misclassified streaming heads) breaks the model even
	// if other heads are exact, so the cross-head aggregate blends the
	// mean with the tail.
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	p90 := stats.Quantile(errs, 0.9)
	eff := 0.5*mean + 0.5*p90
	return bench.Accuracy(model.Name, eff), memSum
}

// evalDiffKV runs the full DiffKV engine for a (model, benchmark) pair.
// Sequences fan out across the worker pool; the reduction stays in sequence
// order.
func evalDiffKV(model *synth.ModelConfig, bench *workload.Benchmark, params policy.Params, seqs int, seed uint64, o Opts) (acc, mem float64, bd policy.Breakdown) {
	promptLen, genLen := bench.EvalLen()
	cfg := core.Config{Model: model, Params: params, DensityScale: bench.DensityScale, Seed: seed}
	var errSum, memSum float64
	for _, r := range o.sequences(cfg, promptLen, genLen, seqs, 1) {
		errSum += r.OutputErr
		memSum += r.MemFrac
		bd.High += r.Breakdown.High
		bd.Low += r.Breakdown.Low
		bd.Pruned += r.Breakdown.Pruned
	}
	f := float64(seqs)
	bd.High /= f
	bd.Low /= f
	bd.Pruned /= f
	return bench.Accuracy(model.Name, errSum/f), memSum / f, bd
}

// Table1 reproduces "Accuracy and memory usage of DiffKV and the
// best-performing baseline methods across models and benchmarks".
func Table1(o Opts) []*Table {
	o.norm()
	models := []*synth.ModelConfig{synth.Llama3_8B, synth.Qwen25_7B, synth.Qwen25_32B, synth.Llama3_70B}
	benches := workload.CoreBenchmarks
	if o.Fast {
		models = models[:2]
		benches = benches[:2]
	}
	methods := []baselines.Method{
		baselines.INT4Atom{}, baselines.QAQ{}, baselines.DuoAttention{},
		baselines.Quest{}, baselines.SnapKV{}, baselines.KIVI{},
	}
	var out []*Table
	for _, model := range models {
		t := &Table{
			Title:  fmt.Sprintf("Table 1: accuracy / memory — %s", model.Name),
			Header: []string{"benchmark", "FP16", "DiffKV(mem)", "INT4", "QAQ", "DuoAttn", "Quest", "SnapKV", "KIVI"},
			Notes:  "DiffKV column shows accuracy with its measured memory fraction",
		}
		params := policy.ParamsForModel(model.Name)
		for _, bench := range benches {
			fp16, ok := bench.FP16[model.Name]
			if !ok {
				continue
			}
			row := []string{bench.Name, f1(fp16)}
			dAcc, dMem, _ := evalDiffKV(model, bench, params, o.Reps, o.Seed+seedOf("t1", model.Name, bench.Name), o)
			row = append(row, fmt.Sprintf("%s (%s)", f1(dAcc), pct(dMem)))
			for _, m := range methods {
				acc, _ := evalBaseline(m, model, bench, 2*o.Reps, o.Seed+seedOf("t1", model.Name, bench.Name, m.Name()), o)
				row = append(row, f1(acc))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// Table2 reproduces the LongBench evaluation: DiffKV vs Quest and SnapKV
// (both at 25% memory) on Llama3.1-8B and Qwen2.5-7B.
func Table2(o Opts) []*Table {
	o.norm()
	models := []*synth.ModelConfig{synth.Llama31_8B, synth.Qwen25_7B}
	benches := workload.LongBench
	if o.Fast {
		benches = benches[:2]
	}
	var out []*Table
	for _, model := range models {
		t := &Table{
			Title:  fmt.Sprintf("Table 2: LongBench — %s", model.Name),
			Header: []string{"benchmark", "FP16", "DiffKV(mem)", "Quest@25%", "SnapKV@25%"},
		}
		params := policy.ParamsForModel(model.Name)
		for _, bench := range benches {
			fp16, ok := bench.FP16[model.Name]
			if !ok {
				continue
			}
			dAcc, dMem, _ := evalDiffKV(model, bench, params, o.Reps, o.Seed+seedOf("t2", model.Name, bench.Name), o)
			qAcc, _ := evalBaseline(baselines.Quest{Budget: 0.25}, model, bench, 2*o.Reps, o.Seed+seedOf("t2q", model.Name, bench.Name), o)
			sAcc, _ := evalBaseline(baselines.SnapKV{Budget: 0.25}, model, bench, 2*o.Reps, o.Seed+seedOf("t2s", model.Name, bench.Name), o)
			t.AddRow(bench.Name, f1(fp16),
				fmt.Sprintf("%s (%s)", f1(dAcc), pct(dMem)), f1(qAcc), f1(sAcc))
		}
		out = append(out, t)
	}
	return out
}

// Table3 reproduces the thinking-model evaluation (QwQ-32B,
// R1-Distill-Qwen-14B, R1-Distill-Llama-8B on MATH/GPQA/AIME24): long
// chains of thought amplify compression error, collapsing the pruning and
// 2-bit baselines while DiffKV stays near FP16.
func Table3(o Opts) []*Table {
	o.norm()
	models := []*synth.ModelConfig{synth.QwQ_32B, synth.R1Qwen_14B, synth.R1Llama_8B}
	benches := workload.ThinkingBenchmarks
	if o.Fast {
		models = models[:1]
	}
	methods := []baselines.Method{
		baselines.INT4Atom{}, baselines.KIVI{}, baselines.Quest{}, baselines.SnapKV{},
	}
	var out []*Table
	for _, model := range models {
		t := &Table{
			Title:  fmt.Sprintf("Table 3: thinking model — %s", model.Name),
			Header: []string{"benchmark", "FP16", "DiffKV(mem)", "INT4", "KIVI", "Quest", "SnapKV"},
			Notes:  "long-CoT error accumulation collapses pruning/2-bit baselines",
		}
		params := policy.ParamsForModel(model.Name)
		for _, bench := range benches {
			fp16, ok := bench.FP16[model.Name]
			if !ok {
				continue
			}
			row := []string{bench.Name, f1(fp16)}
			dAcc, dMem, _ := evalDiffKV(model, bench, params, o.Reps, o.Seed+seedOf("t3", model.Name, bench.Name), o)
			row = append(row, fmt.Sprintf("%s (%s)", f1(dAcc), pct(dMem)))
			for _, m := range methods {
				acc, _ := evalBaseline(m, model, bench, 2*o.Reps, o.Seed+seedOf("t3", model.Name, bench.Name, m.Name()), o)
				row = append(row, f1(acc))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// Fig11 reproduces the memory-accuracy tradeoff curves: DiffKV swept over
// its profiled thresholds against each baseline's operating point, for
// representative (model, benchmark) panels.
func Fig11(o Opts) []*Table {
	o.norm()
	type panel struct {
		model *synth.ModelConfig
		bench *workload.Benchmark
	}
	panels := []panel{
		{synth.Llama3_8B, workload.GSM8K},
		{synth.Llama3_8B, workload.MMLU},
		{synth.Qwen25_7B, workload.MMLUPro},
		{synth.Qwen25_7B, workload.HumanEvalPlus},
		{synth.Qwen25_32B, workload.MBPPPlus},
		{synth.Qwen25_32B, workload.MATH},
		{synth.QwQ_32B, workload.MATH},
		{synth.QwQ_32B, workload.AIME24},
		{synth.QwQ_32B, workload.GPQA},
	}
	if o.Fast {
		panels = panels[:2]
	}
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title:  fmt.Sprintf("Fig 11: memory vs accuracy — %s %s", p.model.Name, p.bench.Name),
			Header: []string{"method", "mem%", "accuracy"},
			Notes:  "DiffKV holds FP16 accuracy across its profiled memory range",
		}
		fp16 := p.bench.FP16[p.model.Name]
		t.AddRow("FP16", "100.0%", f1(fp16))
		base := policy.ParamsForModel(p.model.Name)
		alphas := []float64{1, 3, 5}
		if o.Fast {
			alphas = alphas[:2]
		}
		for _, ah := range alphas {
			params := base
			params.AlphaH = ah
			acc, mem, _ := evalDiffKV(p.model, p.bench, params, o.Reps, o.Seed+seedOf("f11", p.model.Name, p.bench.Name), o)
			t.AddRow(fmt.Sprintf("DiffKV(αh=%.0f)", ah), pct(mem), f1(acc))
		}
		for _, m := range []baselines.Method{
			baselines.KIVI{}, baselines.INT4Atom{}, baselines.SnapKV{},
			baselines.DuoAttention{}, baselines.Quest{}, baselines.H2O{},
		} {
			acc, mem := evalBaseline(m, p.model, p.bench, 2*o.Reps, o.Seed+seedOf("f11", p.model.Name, p.bench.Name, m.Name()), o)
			t.AddRow(m.Name(), pct(mem), f1(acc))
		}
		out = append(out, t)
	}
	return out
}

// Fig12 reproduces the KV compression breakdown: fraction of tokens
// pruned / low-precision / high-precision across MMLU, HumanEval+ and MATH
// for three models.
func Fig12(o Opts) []*Table {
	o.norm()
	models := []*synth.ModelConfig{synth.Llama3_8B, synth.Qwen25_7B, synth.Qwen25_32B}
	benches := []*workload.Benchmark{workload.MMLU, workload.HumanEvalPlus, workload.MATH}
	if o.Fast {
		models = models[:1]
	}
	t := &Table{
		Title:  "Fig 12: token breakdown (pruned / low / high)",
		Header: []string{"model", "benchmark", "pruned", "low-prec", "high-prec"},
		Notes:  "diffuse workloads (MMLU, 5-shot) prune most; 0-shot code prunes least",
	}
	for _, model := range models {
		params := policy.ParamsForModel(model.Name)
		for _, bench := range benches {
			_, _, bd := evalDiffKV(model, bench, params, o.Reps, o.Seed+seedOf("f12", model.Name, bench.Name), o)
			t.AddRow(model.Name, bench.Name, pct(bd.Pruned), pct(bd.Low), pct(bd.High))
		}
	}
	return []*Table{t}
}
