// Package mathx provides the small numerical kernels the rest of the
// repository is built on: float32 vector operations, a numerically stable
// softmax, sequential and parallel prefix sums, and a deterministic
// splittable random number generator.
//
// Everything here is pure Go (stdlib only) and allocation-conscious: the hot
// paths (dot products, axpy, softmax) write into caller-provided buffers.
package mathx

import "math"

// Dot returns the inner product of a and b. The two slices must have the
// same length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst += alpha*x element-wise. dst and x must have the same
// length.
func Axpy(alpha float32, x, dst []float32) {
	if len(x) != len(dst) {
		panic("mathx: Axpy length mismatch")
	}
	for i := range x {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the L2 norm of x.
func Norm2(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Softmax writes the softmax of logits into dst and returns dst. It is
// numerically stable (subtracts the max logit before exponentiation).
// dst may alias logits. Panics if lengths differ.
func Softmax(logits, dst []float32) []float32 {
	if len(logits) != len(dst) {
		panic("mathx: Softmax length mismatch")
	}
	if len(logits) == 0 {
		return dst
	}
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxL))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// RelErr returns the relative L2 error ||a-b|| / ||b||. If ||b|| is zero it
// returns ||a-b||.
func RelErr(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("mathx: RelErr length mismatch")
	}
	var num, den float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		num += d * d
		den += float64(b[i]) * float64(b[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// Clamp bounds v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
