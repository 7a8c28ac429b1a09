// Package mathx provides the small numerical kernels the rest of the
// repository is built on: float32 vector operations, a numerically stable
// softmax, sequential and parallel prefix sums, a deterministic
// splittable random number generator, and the worker pool (ForEach) whose
// results do not depend on its worker count.
//
// The generator has two normal samplers on purpose. Scalar draws (Norm,
// LogNorm) stay polar Box-Muller, because the serving path's request
// lengths and tier fractions come from them and its pinned digests record
// every one. Bulk float32 tensors (NormVec) use a 128-layer ziggurat, which
// is what the synthetic KV data spends its time in; its tables are
// literals, so its fast path draws the same values on every GOARCH.
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

// DotRows writes out[j] = Dot(q, rows[j]) * scale for every row. It works
// through the rows four at a time, one accumulator per row, so each row is
// summed in exactly Dot's order and every output bit equals the per-row
// loop's; a tail of fewer than four rows goes through Dot. Like Dot, it
// panics on a row whose length differs from len(q).
func DotRows(q []float32, rows [][]float32, scale float32, out []float32) {
	out = out[:len(rows)]
	j := 0
	for ; j+4 <= len(rows); j += 4 {
		r0, r1, r2, r3 := rows[j], rows[j+1], rows[j+2], rows[j+3]
		if len(r0) != len(q) || len(r1) != len(q) || len(r2) != len(q) || len(r3) != len(q) {
			panic("mathx: DotRows length mismatch")
		}
		r0, r1, r2, r3 = r0[:len(q)], r1[:len(q)], r2[:len(q)], r3[:len(q)]
		var s0, s1, s2, s3 float32
		for i, qv := range q {
			s0 += qv * r0[i]
			s1 += qv * r1[i]
			s2 += qv * r2[i]
			s3 += qv * r3[i]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0*scale, s1*scale, s2*scale, s3*scale
	}
	for ; j < len(rows); j++ {
		out[j] = Dot(q, rows[j]) * scale
	}
}

// AxpyRows computes dst += w[j]*rows[j] for j in order, with the same
// result bits as calling Axpy once per row. It works through the rows four
// at a time: each dst element is loaded and stored once per group and
// receives the four terms in row order. A tail of fewer than four rows
// goes through Axpy. Like Axpy, it panics on a row whose length differs
// from len(dst).
func AxpyRows(w []float32, rows [][]float32, dst []float32) {
	w = w[:len(rows)]
	j := 0
	for ; j+4 <= len(rows); j += 4 {
		r0, r1, r2, r3 := rows[j], rows[j+1], rows[j+2], rows[j+3]
		if len(r0) != len(dst) || len(r1) != len(dst) || len(r2) != len(dst) || len(r3) != len(dst) {
			panic("mathx: AxpyRows length mismatch")
		}
		r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
		w0, w1, w2, w3 := w[j], w[j+1], w[j+2], w[j+3]
		for i, d := range dst {
			d += w0 * r0[i]
			d += w1 * r1[i]
			d += w2 * r2[i]
			d += w3 * r3[i]
			dst[i] = d
		}
	}
	for ; j < len(rows); j++ {
		Axpy(w[j], rows[j], dst)
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
