//go:build !amd64 || race

package mathx

// axpy4 computes dst[i] = (((dst[i] + w0·r0[i]) + w1·r1[i]) + w2·r2[i]) +
// w3·r3[i] for every i < len(dst). Off amd64, and under the race detector,
// it is the Go body. Every row must hold at least len(dst) elements.
func axpy4(dst []float32, w0, w1, w2, w3 float32, r0, r1, r2, r3 []float32) {
	axpy4Go(dst, w0, w1, w2, w3, r0, r1, r2, r3)
}
