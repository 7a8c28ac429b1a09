package experiments

import (
	"fmt"
	"slices"

	"diffkv/internal/attention"
	"diffkv/internal/core"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
	"diffkv/internal/stats"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// uniformErr measures the mean attention-output error of one uniform
// precision configuration on a model under a benchmark's sparsity profile.
// Each rep is one head on the head pool and derives its own RNG stream.
func uniformErr(model *synth.ModelConfig, bench *workload.Benchmark, prec quant.Precision, reps int, root *mathx.RNG) float64 {
	n := 384
	errs := make([]float64, reps)
	eachHead(reps, func(rep int) {
		rng := root.SplitAt(uint64(rep))
		prof := synth.Profile(model, (rep*7)%model.Layers, rep%model.KVHeads, bench.DensityScale, rng)
		h := synth.GenHead(model, prof, n, rng.SplitAt(1))
		q := h.Query(rng)
		var scRef, sc attention.Scratch
		ref := scRef.Reference(q, h.Keys, h.Vals)
		errs[rep] = attention.OutputError(sc.Uniform(q, h.Keys, h.Vals, prec), ref)
	})
	return meanOf(errs)
}

// Fig8 reproduces "Accuracy of differentiated KV quantization": FP16 vs
// K8V4/K4V8/K8V2/K4V2/K2V4/K4V1 applied uniformly, on GSM8K and
// HumanEval+, across Llama3-8B, Qwen2.5-7B and Llama3-70B.
func Fig8(o Opts) []*Table {
	o.norm()
	models := []*synth.ModelConfig{synth.Llama3_8B, synth.Qwen25_7B, synth.Llama3_70B}
	precs := []quant.Precision{quant.FP16, quant.K8V4, quant.K4V8, quant.K8V2, quant.K4V2, quant.K2V4, quant.K4V1}
	benches := []*workload.Benchmark{workload.GSM8K, workload.HumanEvalPlus}
	reps := 4 * o.Reps
	if o.Fast {
		reps = 4
	}
	root := mathx.NewRNG(o.Seed + 8)

	var out []*Table
	for _, bench := range benches {
		t := &Table{
			Title:  fmt.Sprintf("Fig 8: differentiated KV quantization — %s accuracy", bench.Name),
			Header: append([]string{"model"}, precNames(precs)...),
			Notes:  "keys need more bits than values: KxVy beats its mirror KyVx",
		}
		for _, model := range models {
			row := []string{model.Name}
			for _, p := range precs {
				e := 0.0
				if p != quant.FP16 {
					e = uniformErr(model, bench, p, reps, root.SplitAt(seedOf(model.Name, bench.Name, p.String())))
				}
				row = append(row, f1(bench.Accuracy(model.Name, e)))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

func precNames(ps []quant.Precision) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func seedOf(parts ...string) uint64 {
	var s uint64 = 1469598103934665603
	for _, p := range parts {
		for _, c := range p {
			s = (s ^ uint64(c)) * 1099511628211
		}
	}
	return s
}

// Fig9 reproduces "Accuracy of dynamic vs static sparsity": pruning a
// target fraction of tokens either with a shared global significance
// threshold (per-head dynamic budgets — DiffKV's approach) or with a
// uniform per-head budget (SnapKV-style static), across pruned fractions.
func Fig9(o Opts) []*Table {
	o.norm()
	models := []*synth.ModelConfig{synth.Llama3_8B, synth.Qwen25_7B}
	benches := []*workload.Benchmark{workload.GSM8K, workload.HumanEvalPlus}
	// the paper sweeps 0-80%; our retention curve is forgiving below its
	// half-point, so the deeper end of the sweep is where the dynamic vs
	// static gap becomes visible
	fracs := []float64{0.25, 0.5, 0.75, 0.85, 0.92}
	if o.Fast {
		fracs = []float64{0.5, 0.85}
	}
	heads := 10
	n := 512
	probes := 6
	reps := o.Reps
	root := mathx.NewRNG(o.Seed + 9)

	var out []*Table
	for _, model := range models {
		for _, bench := range benches {
			t := &Table{
				Title:  fmt.Sprintf("Fig 9: dynamic vs static sparsity — %s %s", model.Name, bench.Name),
				Header: []string{"pruned-frac", "dynamic-acc", "static-acc"},
				Notes:  "dynamic per-head budgets dominate uniform budgets",
			}
			// reps fan out across the worker pool, and a rep's heads on
			// the head pool. A rep's heads, queries and reference outputs
			// do not depend on the pruned fraction, so each rep builds
			// them once and then sweeps every fraction; every head owns
			// its scratch, and per-head results land at their index and
			// are concatenated in (rep, head) order.
			repDyn := make([][][]float64, len(fracs))
			repStat := make([][][]float64, len(fracs))
			for f := range fracs {
				repDyn[f] = make([][]float64, reps)
				repStat[f] = make([][]float64, reps)
			}
			o.forEach(reps, func(rep int) {
				rng := root.SplitAt(seedOf(model.Name, bench.Name) + uint64(rep))
				// one request: heads spanning sparse to dense profiles, each
				// with its probe queries and their full-cache outputs
				hs := make([]headEval, heads)
				scs := make([]attention.Scratch, heads)
				eachHead(heads, func(i int) {
					sc := &scs[i]
					prof := synth.Profile(model, (i*3)%model.Layers, i%model.KVHeads, bench.DensityScale, rng.SplitAt(uint64(i)))
					data := synth.GenHead(model, prof, n, rng.SplitAt(uint64(100+i)))
					h := headEval{data: data, sig: data.CheapSignificance(model, rng.SplitAt(uint64(200+i)))}
					for pr := 0; pr < probes; pr++ {
						q := data.Query(rng.SplitAt(uint64(300 + i*100 + pr)))
						h.queries = append(h.queries, q)
						h.refs = append(h.refs, slices.Clone(sc.Reference(q, data.Keys, data.Vals)))
					}
					hs[i] = h
				})
				sorted := sortedSig(hs)
				for f, frac := range fracs {
					// dynamic: one global threshold hits the aggregate target
					keepDyn := dynamicKeepSets(hs, sorted, frac)
					// static: every head prunes exactly frac; per-head errors
					// blend mean with tail (pruning errors are spiky: a query
					// that needs an evicted token fails hard)
					k := int(float64(n) * (1 - frac))
					dyn, stat := make([]float64, heads), make([]float64, heads)
					eachHead(heads, func(i int) {
						sc, h := &scs[i], hs[i]
						var dSum, sSum float64
						dSamples := make([]float64, probes)
						sSamples := make([]float64, probes)
						sIdx := topK(h.sig, k)
						for pr, q := range h.queries {
							dSamples[pr] = attention.OutputError(sc.Subset(q, h.data.Keys, h.data.Vals, keepDyn[i]), h.refs[pr])
							sSamples[pr] = attention.OutputError(sc.Subset(q, h.data.Keys, h.data.Vals, sIdx), h.refs[pr])
							dSum += dSamples[pr]
							sSum += sSamples[pr]
						}
						dyn[i] = 0.5*dSum/float64(probes) + 0.5*stats.Quantile(dSamples, 0.9)
						stat[i] = 0.5*sSum/float64(probes) + 0.5*stats.Quantile(sSamples, 0.9)
					})
					repDyn[f][rep], repStat[f][rep] = dyn, stat
				}
			})
			for f, frac := range fracs {
				var dynErrs, statErrs []float64
				for rep := 0; rep < reps; rep++ {
					dynErrs = append(dynErrs, repDyn[f][rep]...)
					statErrs = append(statErrs, repStat[f][rep]...)
				}
				blend := func(errs []float64) float64 {
					var mean float64
					for _, e := range errs {
						mean += e
					}
					mean /= float64(len(errs))
					return 0.5*mean + 0.5*stats.Quantile(errs, 0.9)
				}
				t.AddRow(pct(frac),
					f1(bench.Accuracy(model.Name, blend(dynErrs))),
					f1(bench.Accuracy(model.Name, blend(statErrs))))
			}
			out = append(out, t)
		}
	}
	return out
}

// headEval bundles one head's tensors with its significance scores, its
// probe queries and each query's full-cache attention output.
type headEval struct {
	data    *synth.HeadData
	sig     []float32
	queries [][]float32
	refs    [][]float32
}

// sortedSig returns every head's significance scores in one ascending
// slice, the order statistics dynamicKeepSets draws its threshold from.
func sortedSig(hs []headEval) []float32 {
	var all []float32
	for _, h := range hs {
		all = append(all, h.sig...)
	}
	slices.Sort(all)
	return all
}

// dynamicKeepSets finds one global normalized-significance threshold such
// that the aggregate pruned fraction across heads hits the target, then
// returns each head's kept indices (per-head counts differ — the dynamic
// sparsity DiffKV exploits). sorted is sortedSig(hs).
func dynamicKeepSets(hs []headEval, sorted []float32, frac float64) [][]int {
	k := int(float64(len(sorted)) * frac) // number pruned
	if k <= 0 {
		k = 1
	}
	// threshold = k-th smallest significance
	thr := sorted[k-1]
	out := make([][]int, len(hs))
	for i, h := range hs {
		var idx []int
		for j, s := range h.sig {
			if s > thr {
				idx = append(idx, j)
			}
		}
		if len(idx) == 0 {
			idx = []int{len(h.sig) - 1}
		}
		out[i] = idx
	}
	return out
}

func topK(sig []float32, k int) []int {
	n := len(sig)
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// selection of k best by simple partial sort
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if sig[order[j]] > sig[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	kept := append([]int(nil), order[:k]...)
	// sort ascending positions
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && kept[j] < kept[j-1]; j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	return kept
}

// Fig10 reproduces the (αh, αl) calibration on the MATH training split:
// accuracy as each threshold sweeps its profiled range, with the paper's
// chosen value marked.
func Fig10(o Opts) []*Table {
	o.norm()
	type panel struct {
		model  *synth.ModelConfig
		sweep  string // "alphaH" or "alphaL"
		chosen float64
	}
	panels := []panel{
		{synth.Llama3_8B, "alphaH", 1},
		{synth.Llama3_8B, "alphaL", 0.02},
		{synth.Qwen25_7B, "alphaL", 0.04},
		{synth.Llama3_70B, "alphaH", 1},
		{synth.Qwen25_32B, "alphaH", 3},
		{synth.QwQ_32B, "alphaH", 3},
	}
	bench := workload.MATHTrain
	promptLen, genLen := bench.EvalLen()
	if o.Fast {
		promptLen, genLen = 192, 160
	}
	seqs := o.Reps
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title:  fmt.Sprintf("Fig 10: calibration — %s sweep %s (MATH-train)", p.model.Name, p.sweep),
			Header: []string{p.sweep, "accuracy", "mem%", "chosen"},
		}
		var values []float64
		if p.sweep == "alphaH" {
			values = []float64{1, 2, 3, 4, 5}
		} else {
			values = []float64{0.02, 0.04, 0.06, 0.08, 0.1}
		}
		if o.Fast {
			values = values[:3]
		}
		base := policy.ParamsForModel(p.model.Name)
		for _, v := range values {
			params := base
			if p.sweep == "alphaH" {
				params.AlphaH = v
			} else {
				params.AlphaL = v
			}
			acc, mem := diffKVAccuracy(p.model, bench, params, promptLen, genLen, seqs, o.Seed+10, o)
			mark := ""
			if v == p.chosen {
				mark = "<- chosen"
			}
			t.AddRow(f2(v), f1(acc), pct(mem), mark)
		}
		out = append(out, t)
	}
	return out
}

// diffKVAccuracy runs the full DiffKV engine on a benchmark profile and
// maps the measured error through the benchmark's accuracy model. Sequences
// fan out across the worker pool (the engine is stateless across runs).
func diffKVAccuracy(model *synth.ModelConfig, bench *workload.Benchmark, params policy.Params, promptLen, genLen, seqs int, seed uint64, o Opts) (acc, mem float64) {
	cfg := core.Config{Model: model, Params: params, DensityScale: bench.DensityScale, Seed: seed}
	var errSum, memSum float64
	for _, r := range o.sequences(cfg, promptLen, genLen, seqs, 1) {
		errSum += r.OutputErr
		memSum += r.MemFrac
	}
	return bench.Accuracy(model.Name, errSum/float64(seqs)), memSum / float64(seqs)
}
