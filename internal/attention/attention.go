// Package attention implements the attention kernels: an FP16-equivalent
// reference path, a uniform-quantization path (for the Fig. 8 ablations),
// and the compressed-cache path that reads DiffKV unified pages
// (high-precision pages first, then low-precision — mirroring the warp
// iteration order of the paper's CUDA kernel, §6.2) with on-the-fly
// dequantization. Every kernel is a method of Scratch, which owns the
// buffers, and returns the attention output vector.
package attention

import "diffkv/internal/mathx"

// OutputError returns the relative L2 error of a compressed attention
// output against the reference output — the fidelity signal the accuracy
// model consumes.
func OutputError(compressed, reference []float32) float64 {
	return mathx.RelErr(compressed, reference)
}
