// Package attention implements the attention kernels: an FP16-equivalent
// reference path, a uniform-quantization path (for the Fig. 8 ablations),
// and the compressed-cache path that reads DiffKV unified pages
// (high-precision pages first, then low-precision — mirroring the warp
// iteration order of the paper's CUDA kernel, §6.2) with on-the-fly
// dequantization. It also accounts the HBM bytes each variant touches,
// which gpusim converts to kernel time.
package attention

import (
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
)

// TokenWeight is one token's attention weight, keyed by its original
// position (positions survive compaction inside unified pages).
type TokenWeight struct {
	Pos    int32
	Weight float32
}

// Result is one attention computation over one (query, head) pair.
type Result struct {
	// Output is the attention output vector (length dim).
	Output []float32
	// Weights lists the softmax weight of every token that participated
	// (cached tokens and window tokens).
	Weights []TokenWeight
	// BytesRead is the KV payload+metadata bytes the kernel touched.
	BytesRead int
}

// Reference computes exact attention of query q over uncompressed keys and
// values — the FP16 baseline. keys and vals must have equal length.
// Convenience wrapper allocating a fresh Scratch; hot paths hold their own
// Scratch and call its methods directly.
func Reference(q []float32, keys, vals [][]float32) Result {
	var s Scratch
	return s.Reference(q, keys, vals)
}

// Compressed computes attention over a DiffKV head cache plus the
// uncompressed recent window. High-precision pages are processed first,
// then low-precision pages, then the window (which the real kernel reads
// from the high-precision tier). Convenience wrapper over
// Scratch.Compressed.
func Compressed(q []float32, hc *kvcache.HeadCache, window []policy.WindowToken) Result {
	var s Scratch
	return s.Compressed(q, hc, window)
}

// OutputError returns the relative L2 error of a compressed attention
// output against the reference output — the fidelity signal the accuracy
// model consumes.
func OutputError(compressed, reference []float32) float64 {
	return mathx.RelErr(compressed, reference)
}
