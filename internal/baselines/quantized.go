package baselines

import (
	"sort"

	"diffkv/internal/mathx"
	"diffkv/internal/quant"
	"diffkv/internal/synth"
)

// INT4Atom is the Atom/QServe-style uniform 4-bit baseline: every key and
// value quantized at 4 bits with group-wise scales (group size 32), which
// contains outlier channels within their group.
type INT4Atom struct{}

const atomGroupSize = 32

// Name implements Method.
func (INT4Atom) Name() string { return "INT4" }

// Evaluate implements Method.
func (INT4Atom) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	keys := roundTripKeys(data, func(_ int, key []float32) []float32 {
		return quant.RoundTripGrouped(key, 4, atomGroupSize)
	})
	vals := make([][]float32, n)
	for j := 0; j < n; j++ {
		vals[j] = quant.RoundTripGrouped(data.Vals[j], 4, atomGroupSize)
	}
	e := reconErr(data, keys, vals, probes, rng)
	perToken := quant.GroupedTokenBytes(data.Dim, quant.K4V4, atomGroupSize)
	return EvalResult{
		OutputErr: e,
		MemFrac:   float64(perToken) / float64(fp16PayloadBytes(data.Dim)),
	}
}

// KIVI is the 2-bit asymmetric quantization baseline: all but the most
// recent 128 tokens are stored at 2 bits — keys quantized per-channel (so
// persistent outlier channels get their own scale, KIVI's central design
// point), values per-token in groups of 64 (KIVI groups along larger spans
// than Atom) — while the residual window stays FP16.
type KIVI struct{}

const (
	kiviResidualLen = 128
	kiviGroupSize   = 64
)

// Name implements Method.
func (KIVI) Name() string { return "KIVI" }

// Evaluate implements Method.
func (KIVI) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	cut := n - kiviResidualLen
	if cut < 0 {
		cut = 0
	}
	// keys: per-channel 2-bit across the compressed block, one scale/zero
	// pair per channel (outlier channels get their own scale — KIVI's key
	// insight), read straight from the head's columns; values: per-token
	// 2-bit
	keys := synth.NewKeyCols(data.Dim, n)
	for d, c := range data.KeyCols {
		copy(keys[d], quant.RoundTrip(c[:cut], 2))
		copy(keys[d][cut:], c[cut:n])
	}
	vals := make([][]float32, n)
	for j := 0; j < n; j++ {
		if j < cut {
			vals[j] = quant.RoundTripGrouped(data.Vals[j], 2, kiviGroupSize)
		} else {
			vals[j] = data.Vals[j]
		}
	}
	e := reconErr(data, keys, vals, probes, rng)
	qBytes := cut * quant.GroupedTokenBytes(data.Dim, quant.K2V2, kiviGroupSize)
	fpBytes := (n - cut) * fp16PayloadBytes(data.Dim)
	return EvalResult{
		OutputErr: e,
		MemFrac:   float64(qBytes+fpBytes) / float64(n*fp16PayloadBytes(data.Dim)),
	}
}

// QAQ is the quality-adaptive quantization baseline: per-token precision
// chosen by importance (group-wise quantization), but — unlike DiffKV —
// keys and values share the same width, the assignment is static per
// token, and nothing is pruned.
type QAQ struct{}

// Name implements Method.
func (QAQ) Name() string { return "QAQ" }

// Evaluate implements Method: top 10% of tokens at 8 bits, next 40% at
// 4 bits, the rest at 2 bits (per-vector quantization, matching the
// paper's characterization of QAQ as importance-aware but K/V-uniform).
func (QAQ) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// rank by significance descending
	sortBySigDesc(idx, sig)
	bits := make([]int, n)
	for rank, j := range idx {
		switch {
		case rank < n/10:
			bits[j] = 8
		case rank < n/2:
			bits[j] = 4
		default:
			bits[j] = 2
		}
	}
	keys := roundTripKeys(data, func(j int, key []float32) []float32 {
		return quant.RoundTripGrouped(key, bits[j], 32)
	})
	vals := make([][]float32, n)
	var bytes int
	for j := 0; j < n; j++ {
		vals[j] = quant.RoundTripGrouped(data.Vals[j], bits[j], 32)
		bytes += quant.GroupedTokenBytes(data.Dim, quant.Precision{KeyBits: bits[j], ValBits: bits[j]}, 32)
	}
	e := reconErr(data, keys, vals, probes, rng)
	return EvalResult{
		OutputErr: e,
		MemFrac:   float64(bytes) / float64(n*fp16PayloadBytes(data.Dim)),
	}
}

func sortBySigDesc(idx []int, sig []float32) {
	// insertion-free stdlib sort with a stable tiebreak on position
	lessFn := func(a, b int) bool {
		if sig[idx[a]] != sig[idx[b]] {
			return sig[idx[a]] > sig[idx[b]]
		}
		return idx[a] < idx[b]
	}
	sort.Slice(idx, lessFn)
}

// roundTripKeys passes every key of the head through rt, gathered into a
// reused row with its token index, and returns the reconstructions by
// column, as attention.Scratch.Reference takes keys.
func roundTripKeys(data *synth.HeadData, rt func(j int, key []float32) []float32) [][]float32 {
	n := data.Len()
	cols := synth.NewKeyCols(data.Dim, n)
	row := make([]float32, data.Dim)
	for j := 0; j < n; j++ {
		for d, v := range rt(j, data.KeyInto(j, row)) {
			cols[d][j] = v
		}
	}
	return cols
}
