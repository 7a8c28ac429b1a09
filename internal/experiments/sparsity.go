package experiments

import (
	"fmt"

	"diffkv/internal/mathx"
	"diffkv/internal/stats"
	"diffkv/internal/synth"
)

// Fig2 reproduces "Distribution of attention score and value vector norm in
// Llama3-8B": CDFs of per-token attention scores and value norms for three
// representative layers, plus the orders-of-magnitude summary backing the
// paper's claim (scores span ~7 orders, norms ≤ 2).
func Fig2(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	layers := []int{0, 15, 31}
	root := mathx.NewRNG(o.Seed)
	seqs := 24
	seqLen := 512
	if o.Fast {
		seqs, seqLen = 8, 256
	}

	cdfT := &Table{
		Title:  "Fig 2: attention score vs value norm CDF (Llama3-8B)",
		Header: []string{"series", "p10", "p25", "p50", "p75", "p90", "orders-of-magnitude"},
		Notes:  "scores span far more orders of magnitude than value norms",
	}
	for _, layer := range layers {
		// a sequence's samples are one head's: sequences fan out on the
		// head pool and are concatenated in sequence order
		seqScores := make([][]float64, seqs)
		seqNorms := make([][]float64, seqs)
		eachHead(seqs, func(s int) {
			rng := root.SplitAt(uint64(layer*1000 + s))
			prof := synth.Profile(model, layer, s%model.KVHeads, 1, rng)
			h := synth.GenHead(model, prof, seqLen, rng.SplitAt(1))
			q := h.Query(rng)
			for _, sc := range h.Scores(q, seqLen) {
				seqScores[s] = append(seqScores[s], float64(sc))
			}
			for _, v := range h.Vals {
				seqNorms[s] = append(seqNorms[s], float64(mathx.Norm2(v)))
			}
		})
		var scores, norms []float64
		for s := 0; s < seqs; s++ {
			scores = append(scores, seqScores[s]...)
			norms = append(norms, seqNorms[s]...)
		}
		// fixed series order (a map iteration here would make row order
		// nondeterministic across runs)
		for _, series := range []struct {
			name   string
			sample []float64
		}{{"score", scores}, {"v-norm", norms}} {
			cdf := stats.NewCDF(series.sample)
			cdfT.AddRow(
				fmt.Sprintf("%s-layer-%d", series.name, layer),
				fmt.Sprintf("%.2e", stats.Quantile(series.sample, 0.10)),
				fmt.Sprintf("%.2e", stats.Quantile(series.sample, 0.25)),
				fmt.Sprintf("%.2e", stats.Quantile(series.sample, 0.50)),
				fmt.Sprintf("%.2e", stats.Quantile(series.sample, 0.75)),
				fmt.Sprintf("%.2e", stats.Quantile(series.sample, 0.90)),
				f1(cdf.OrdersOfMagnitude()),
			)
		}
	}
	return []*Table{cdfT}
}

// Fig3 reproduces "Per-token attention scores in the 8th layer of
// Llama3-8B": the heavy-tailed per-token score series of one sequence,
// summarized as a down-sampled series plus tail statistics.
func Fig3(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	rng := mathx.NewRNG(o.Seed + 3)
	n := 2048
	if o.Fast {
		n = 512
	}
	prof := synth.Profile(model, 8, 0, 1, rng)
	h := synth.GenHead(model, prof, n, rng.SplitAt(1))
	q := h.Query(rng)
	scores := h.Scores(q, n)

	series := &Table{
		Title:  "Fig 3: per-token attention scores (layer 8, one sequence)",
		Header: []string{"token-range", "mean-score", "max-score"},
	}
	buckets := 16
	per := n / buckets
	for b := 0; b < buckets; b++ {
		var sum, maxV float64
		for j := b * per; j < (b+1)*per && j < n; j++ {
			s := float64(scores[j])
			sum += s
			if s > maxV {
				maxV = s
			}
		}
		series.AddRow(
			fmt.Sprintf("%d-%d", b*per, (b+1)*per-1),
			fmt.Sprintf("%.2e", sum/float64(per)),
			fmt.Sprintf("%.2e", maxV),
		)
	}
	var sample []float64
	for _, s := range scores {
		sample = append(sample, float64(s))
	}
	series.Notes = fmt.Sprintf("p50=%.2e p99=%.2e max=%.2e — a few tokens dominate",
		stats.Quantile(sample, 0.5), stats.Quantile(sample, 0.99), stats.Quantile(sample, 1))
	return []*Table{series}
}

// Fig4 reproduces "Number of critical tokens per layer in Llama3-8B":
// tokens needed to preserve 95% of attention mass, mean ± std across
// requests, aggregated over KV heads, per layer.
func Fig4(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	root := mathx.NewRNG(o.Seed + 4)
	n := 2048
	reqs := 12
	if o.Fast {
		n, reqs = 512, 4
	}
	t := &Table{
		Title:  "Fig 4: critical tokens per layer @95% attention mass (Llama3-8B, seq 2048)",
		Header: []string{"layer", "mean-critical-tokens", "std-across-requests"},
		Notes:  "sparsity varies substantially across layers",
	}
	// every (layer, request, head) fans out on the head pool; each layer's
	// row averages its heads per request, then its requests, in order
	crit := make([]int, model.Layers*reqs*model.KVHeads)
	eachHead(len(crit), func(i int) {
		layer, r, head := i/(reqs*model.KVHeads), i/model.KVHeads%reqs, i%model.KVHeads
		rng := root.SplitAt(uint64(layer*100 + r))
		prof := synth.Profile(model, layer, head, 1, rng.SplitAt(uint64(head)))
		scores := synth.ScoreSeries(prof, n, rng.SplitAt(uint64(1000+head)))
		crit[i] = synth.CriticalTokens(scores, 0.95)
	})
	for layer := 0; layer < model.Layers; layer++ {
		var s stats.Summary
		for r := 0; r < reqs; r++ {
			var perReq stats.Summary
			for _, c := range crit[(layer*reqs+r)*model.KVHeads:][:model.KVHeads] {
				perReq.Add(float64(c))
			}
			s.Add(perReq.Mean())
		}
		t.AddRow(fmt.Sprintf("%d", layer), f1(s.Mean()), f1(s.Std()))
	}
	return []*Table{t}
}

// Fig5 reproduces "Number of critical tokens per KV head in Llama3-8B":
// per-head means with cross-request std for three representative layers.
func Fig5(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	root := mathx.NewRNG(o.Seed + 5)
	n := 2048
	reqs := 16
	if o.Fast {
		n, reqs = 512, 6
	}
	t := &Table{
		Title:  "Fig 5: critical tokens per KV head @95% attention mass (Llama3-8B)",
		Header: []string{"layer", "head", "mean-critical-tokens", "std-across-requests"},
		Notes:  "heads within a layer differ; the same head varies across requests",
	}
	// the (layer, head) grid fans out on the head pool; rows are emitted
	// in grid order
	layers := []int{0, 15, 31}
	type cellRow struct{ mean, std float64 }
	rows := make([]cellRow, len(layers)*model.KVHeads)
	eachHead(len(rows), func(i int) {
		layer := layers[i/model.KVHeads]
		head := i % model.KVHeads
		var s stats.Summary
		for r := 0; r < reqs; r++ {
			rng := root.SplitAt(uint64(layer*10000 + head*100 + r))
			prof := synth.Profile(model, layer, head, 1, rng)
			scores := synth.ScoreSeries(prof, n, rng.SplitAt(1))
			s.Add(float64(synth.CriticalTokens(scores, 0.95)))
		}
		rows[i] = cellRow{s.Mean(), s.Std()}
	})
	for i, r := range rows {
		t.AddRow(fmt.Sprintf("%d", layers[i/model.KVHeads]), fmt.Sprintf("%d", i%model.KVHeads),
			f1(r.mean), f1(r.std))
	}
	return []*Table{t}
}
