//go:build !amd64 || race

package quant

// dotPacked4 is dotPacked over four slots stored at stride. Off amd64, and
// under the race detector, it is the Go body.
func dotPacked4(q []float32, data []byte, stride, bits int) [4]float32 {
	return dotPacked4Go(q, data, stride, bits)
}

// axpyPacked4 is axpyPacked over four slots stored at stride. Off amd64,
// and under the race detector, it is the Go body.
func axpyPacked4(ws, wz [4]float32, data []byte, stride, bits int, dst []float32) {
	axpyPacked4Go(ws, wz, data, stride, bits, dst)
}

// minMaxKernel and codesKernel take no elements off amd64 and under the
// race detector: QuantizeInto's Go loops take every one.
func minMaxKernel(src []float32, init float32) (k int, lo, hi float32) {
	return 0, init, init
}

func codesKernel(src []float32, zero, inv float32, l, bits int, dst []byte) int {
	return 0
}
