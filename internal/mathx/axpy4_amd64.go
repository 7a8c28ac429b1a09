//go:build amd64 && !race

package mathx

// axpy4 computes dst[i] = (((dst[i] + w0·r0[i]) + w1·r1[i]) + w2·r2[i]) +
// w3·r3[i] for every i < len(dst), bit for bit as axpy4Go does: where AVX
// is usable the VEX-256 body takes the elements eight at a time, the SSE2
// body takes the next four at a time and the Go body the remainder. Every
// row must hold at least len(dst) elements.
//
// The AVX gate is expOnFMAPath, math's own useFMA (AVX and FMA, with the
// OS check), so GODEBUG=cpu.avx=off turns it off with no CPU-feature probe
// of this package's own. The body uses no FMA; the gate only needs AVX.
func axpy4(dst []float32, w0, w1, w2, w3 float32, r0, r1, r2, r3 []float32) {
	n := len(dst)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	m := 0
	if expOnFMAPath {
		m = n &^ 7
		axpy4AVX(dst[:m], r0, r1, r2, r3, w0, w1, w2, w3)
	}
	k := n &^ 3
	axpy4SSE(dst[m:k], r0[m:], r1[m:], r2[m:], r3[m:], w0, w1, w2, w3)
	axpy4Go(dst[k:], w0, w1, w2, w3, r0[k:], r1[k:], r2[k:], r3[k:])
}

// axpy4SSE is axpy4 over the first len(dst)&^3 elements, in SSE2
// (axpy4_amd64.s). Every row must hold at least that many.
//
//go:noescape
func axpy4SSE(dst, r0, r1, r2, r3 []float32, w0, w1, w2, w3 float32)

// axpy4AVX is axpy4 over the first len(dst)&^7 elements, in VEX-256
// (axpy4_amd64.s). Every row must hold at least that many, and the host
// must support AVX.
//
//go:noescape
func axpy4AVX(dst, r0, r1, r2, r3 []float32, w0, w1, w2, w3 float32)
