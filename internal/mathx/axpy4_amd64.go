//go:build amd64 && !race

package mathx

// axpy4 computes dst[i] = (((dst[i] + w0·r0[i]) + w1·r1[i]) + w2·r2[i]) +
// w3·r3[i] for every i < len(dst), bit for bit as axpy4Go does: the SSE2
// body takes the elements four at a time and the Go body the remainder.
// Every row must hold at least len(dst) elements.
func axpy4(dst []float32, w0, w1, w2, w3 float32, r0, r1, r2, r3 []float32) {
	n := len(dst)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	m := n &^ 3
	axpy4SSE(dst[:m], r0, r1, r2, r3, w0, w1, w2, w3)
	axpy4Go(dst[m:], w0, w1, w2, w3, r0[m:], r1[m:], r2[m:], r3[m:])
}

// axpy4SSE is axpy4 over the first len(dst)&^3 elements, in SSE2
// (axpy4_amd64.s). Every row must hold at least that many.
//
//go:noescape
func axpy4SSE(dst, r0, r1, r2, r3 []float32, w0, w1, w2, w3 float32)
