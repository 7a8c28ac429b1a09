// Package baselines re-implements the KV-cache compression systems the
// paper compares against (§7.2, §7.3), each as a policy over the same
// synthetic substrate DiffKV runs on:
//
//	vLLM          – paged FP16, no compression (the normalization baseline)
//	INT4 (Atom)   – uniform 4-bit keys and values, group-wise quantization
//	KIVI          – uniform 2-bit with an uncompressed recent window
//	QAQ           – quality-adaptive uniform precision per token
//	H2O           – heavy-hitter pruning, uniform per-head budget
//	SnapKV        – prompt-window voting pruning, uniform per-head budget
//	Quest         – full cache retained, top-k page loading per query
//	DuoAttention  – retrieval heads full cache, streaming heads sink+recent
//
// Each method exposes the same evaluation protocol: build its cache state
// for one head's sequence, then probe attention fidelity against the FP16
// reference and account memory against vLLM's FP16 payload.
package baselines

import (
	"sort"

	"diffkv/internal/stats"

	"diffkv/internal/attention"
	"diffkv/internal/mathx"
	"diffkv/internal/synth"
)

// EvalResult is one method's fidelity/memory outcome on one head.
type EvalResult struct {
	// OutputErr is the mean relative L2 attention-output error vs FP16.
	OutputErr float64
	// MemFrac is KV memory (payload+metadata) relative to vLLM FP16
	// payload. For Quest this is the per-query loading budget (the paper's
	// reporting convention); its resident cache is the full FP16 cache.
	MemFrac float64
}

// Method is a KV-cache compression baseline.
type Method interface {
	Name() string
	// Evaluate builds the method's cache state for the sequence in data
	// (using sig, the normalized per-token significance scores, where the
	// method needs importance estimates) and probes fidelity with `probes`
	// queries.
	Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult
}

// fp16PayloadBytes is vLLM's per-token KV payload (K and V at 2 bytes per
// element, no quantization metadata).
func fp16PayloadBytes(dim int) int { return 4 * dim }

// probeErr measures the output error of method-specific attention (attnFn)
// against the reference over `probes` fresh queries. The reported error
// blends the mean with the 90th percentile: autoregressive task failure is
// driven by the worst steps, and pruning-style methods have spiky error
// distributions (a query that needs an evicted token fails hard) while
// quantization errors are uniform across queries.
func probeErr(data *synth.HeadData, probes int, rng *mathx.RNG,
	attnFn func(q []float32) []float32) float64 {
	if probes < 2 {
		probes = 2
	}
	samples := make([]float64, probes)
	var sum float64
	var sc attention.Scratch
	for p := 0; p < probes; p++ {
		q := data.Query(rng)
		ref := sc.Reference(q, data.KeyCols, data.Vals)
		samples[p] = attention.OutputError(attnFn(q), ref)
		sum += samples[p]
	}
	mean := sum / float64(probes)
	p90 := stats.Quantile(samples, 0.9)
	return 0.5*mean + 0.5*p90
}

// subsetErr is probeErr for a method that keeps the tokens in idx at full
// precision and drops the rest.
func subsetErr(data *synth.HeadData, idx []int, probes int, rng *mathx.RNG) float64 {
	var sc attention.Scratch
	return probeErr(data, probes, rng, func(q []float32) []float32 {
		return sc.Subset(q, data.KeyCols, data.Vals, idx)
	})
}

// reconErr is probeErr for a method that keeps every token, attending over
// keyCols (by column) and vals: the dequantized reconstructions for a
// quantizing method, the originals for a full-cache one.
func reconErr(data *synth.HeadData, keyCols, vals [][]float32, probes int, rng *mathx.RNG) float64 {
	var sc attention.Scratch
	return probeErr(data, probes, rng, func(q []float32) []float32 {
		return sc.Reference(q, keyCols, vals)
	})
}

// topKBySig returns the indices of the k highest-significance tokens,
// always including the last `window` positions (every pruning baseline
// keeps a recent window).
func topKBySig(sig []float32, k, window int) []int {
	n := len(sig)
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	keep := make(map[int]bool, k)
	wStart := n - window
	if wStart < 0 {
		wStart = 0
	}
	for i := wStart; i < n; i++ {
		keep[i] = true
	}
	if len(keep) < k {
		order := make([]int, 0, wStart)
		for i := 0; i < wStart; i++ {
			order = append(order, i)
		}
		sort.Slice(order, func(a, b int) bool { return sig[order[a]] > sig[order[b]] })
		for _, i := range order {
			if len(keep) >= k {
				break
			}
			keep[i] = true
		}
	}
	idx := make([]int, 0, len(keep))
	for i := 0; i < n; i++ {
		if keep[i] {
			idx = append(idx, i)
		}
	}
	return idx
}
