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
// Everything here is Go (stdlib only) and allocation-conscious: the hot
// paths (dot products, axpy, softmax) write into caller-provided buffers.
// Three routines also have assembly bodies on amd64, built outside the
// race detector only (so it sees every access), and each is bit-identical
// to the Go it stands in for, because each lane holds a different element
// and runs that element's scalar steps in the same order:
//
//   - axpy4, the four-row multiply-add under AxpyRows and DotCols, is
//     VEX-256 eight elements at a time where AVX is usable, then SSE2 four
//     at a time (axpy4_amd64.s): a multiply then an add per row, never a
//     fused op, so a lane rounds exactly where the MULSS/ADDSS of its Go
//     body, axpy4Go, would. SSE2 is amd64's baseline and needs no check;
//     the AVX body is gated on ExpVec's gate, math's own useFMA (AVX and
//     FMA, with the OS check), so it needs no CPU-feature probe either.
//   - ExpVec's kernel transcribes the AVX+FMA path of math.Exp's own
//     assembly (math/exp_amd64.s, Shibata's SIMD-oriented method) two
//     lanes at a time (expvec_amd64.s). It runs only where math.Exp takes
//     that path: the gate probes one input whose two paths round
//     differently, so it is math's own useFMA, with no second CPU-feature
//     check. Off that path the body is a math.Exp loop, so there is no
//     second body to keep equal.
//   - LogVec's kernel transcribes math.Log's single amd64 path
//     (math/log_amd64.s) in SSE2, two lanes at a time.
//
// The two kernels leave every pair with a lane off the main path (NaN,
// infinities, overflow, subnormal or zero exps, logs outside (0, +Inf))
// to math.Exp and math.Log. Off amd64, and under the race detector, the
// bodies are the Go loops.
//
// Every product the row kernels (Dot, Axpy, AxpyRows, DotCols, DotColsAt,
// axpy4Go) sum is converted to float32 explicitly, and every product the
// polar normal samplers (Norm, LogNorm, LogNormInto) add to is converted
// to float64. The Go spec lets a compiler fuse x*y+z into one rounding
// unless the product is converted, and arm64 would fuse it; amd64 never
// does, so the conversion changes no amd64 instruction and keeps the sums
// the same on every GOARCH.
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
		s += float32(a[i] * b[i])
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
		dst[i] += float32(alpha * x[i])
	}
}

// DotCols scores one query against vectors laid out by column: it writes
// out[j] = scale·Σᵢ q[i]·cols[i][j] for every j < len(out), where cols[i]
// holds element i of every vector. Each out[j] is summed from zero in i
// order and then scaled, so with cols[i][j] == rows[j][i] every output bit
// equals Dot(q, rows[j])·scale. It adds four columns at a time into out
// (axpy4), so a scorer whose keys are laid out by column streams each one
// once per query. A column may be
// longer than out; it panics unless len(cols) == len(q) and every column
// holds at least len(out) elements.
func DotCols(q []float32, cols [][]float32, scale float32, out []float32) {
	if len(cols) != len(q) {
		panic("mathx: DotCols length mismatch")
	}
	for _, c := range cols {
		if len(c) < len(out) {
			panic("mathx: DotCols column shorter than out")
		}
	}
	clear(out)
	i := 0
	for ; i+4 <= len(q); i += 4 {
		axpy4(out, q[i], q[i+1], q[i+2], q[i+3], cols[i], cols[i+1], cols[i+2], cols[i+3])
	}
	for ; i < len(q); i++ {
		Axpy(q[i], cols[i][:len(out)], out)
	}
	Scale(scale, out)
}

// DotColsAt is DotCols restricted to the vectors listed in idx: it writes
// out[k] = scale·Σᵢ q[i]·cols[i][idx[k]] for every k < len(idx), each
// summed from zero in i order and then scaled, so every output bit equals
// DotCols's out[idx[k]]. It reads only the listed elements of each column,
// so its work is len(idx)·len(q), however far apart the listed vectors
// lie. It panics unless len(cols) == len(q) and len(out) >= len(idx).
func DotColsAt(q []float32, cols [][]float32, idx []int, scale float32, out []float32) {
	if len(cols) != len(q) {
		panic("mathx: DotColsAt length mismatch")
	}
	out = out[:len(idx)]
	clear(out)
	i := 0
	for ; i+4 <= len(q); i += 4 {
		q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
		c0, c1, c2, c3 := cols[i], cols[i+1], cols[i+2], cols[i+3]
		for k, j := range idx {
			d := out[k]
			d += float32(q0 * c0[j])
			d += float32(q1 * c1[j])
			d += float32(q2 * c2[j])
			d += float32(q3 * c3[j])
			out[k] = d
		}
	}
	for ; i < len(q); i++ {
		qi, c := q[i], cols[i]
		for k, j := range idx {
			out[k] += float32(qi * c[j])
		}
	}
	Scale(scale, out)
}

// AxpyRows computes dst += w[j]*rows[j] for j in order, with the same
// result bits as calling Axpy once per row. It works through the rows four
// at a time (axpy4): each dst element is loaded and stored once per group
// and receives the four terms in row order. A tail of fewer than four rows
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
		axpy4(dst, w[j], w[j+1], w[j+2], w[j+3], r0, r1, r2, r3)
	}
	for ; j < len(rows); j++ {
		Axpy(w[j], rows[j], dst)
	}
}

// axpy4Go is axpy4's Go body: for every i < len(dst),
// dst[i] = (((dst[i] + w0·r0[i]) + w1·r1[i]) + w2·r2[i]) + w3·r3[i], each
// product and each sum rounded to float32. Every row must hold at least
// len(dst) elements.
func axpy4Go(dst []float32, w0, w1, w2, w3 float32, r0, r1, r2, r3 []float32) {
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	for i, d := range dst {
		d += float32(w0 * r0[i])
		d += float32(w1 * r1[i])
		d += float32(w2 * r2[i])
		d += float32(w3 * r3[i])
		dst[i] = d
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

// softmaxChunk is the number of exps Softmax takes through one ExpVec
// call, in a stack buffer.
const softmaxChunk = 64

// Softmax writes the softmax of logits into dst and returns dst. It is
// numerically stable (subtracts the max logit before exponentiation).
// dst may alias logits. Panics if lengths differ. Its exps go through
// ExpVec 64 at a time, so each is math.Exp's, and their float64 sum runs
// in index order.
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
	var buf [softmaxChunk]float64
	for lo := 0; lo < len(logits); lo += softmaxChunk {
		chunk := logits[lo:min(lo+softmaxChunk, len(logits))]
		e := buf[:len(chunk)]
		for i, v := range chunk {
			e[i] = float64(v - maxL)
		}
		ExpVec(e, e)
		for i, x := range e {
			dst[lo+i] = float32(x)
			sum += x
		}
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
