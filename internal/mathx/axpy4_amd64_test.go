//go:build amd64 && !race

package mathx

import (
	"math"
	"testing"
)

// TestAxpy4KernelsRun: on an AVX host axpy4's VEX-256 body is gated on,
// and each assembly body, called directly, writes axpy4Go's bits over the
// elements it covers and leaves the rest alone. A gate that stays off
// fails here (GODEBUG=cpu.avx=off turns it off, so that run does not
// select this test).
func TestAxpy4KernelsRun(t *testing.T) {
	if !expOnFMAPath {
		t.Fatal("axpy4's AVX body is gated off, yet every pin in this repository needs math.Exp's AVX+FMA path (TestExpTakesFMAPath), which implies AVX")
	}
	rng := NewRNG(50)
	const n = 45
	var rows [4][]float32
	for r := range rows {
		rows[r] = axpy4Values(rng, n)
	}
	for _, body := range []struct {
		name string
		fn   func(dst, r0, r1, r2, r3 []float32, w0, w1, w2, w3 float32)
		done int
	}{{"axpy4AVX", axpy4AVX, n &^ 7}, {"axpy4SSE", axpy4SSE, n &^ 3}} {
		got := axpy4Values(rng, n)
		want := append([]float32(nil), got...)
		body.fn(got, rows[0], rows[1], rows[2], rows[3], 0.5, -2, 3, 0.125)
		axpy4Go(want[:body.done], 0.5, -2, 3, 0.125, rows[0], rows[1], rows[2], rows[3])
		for i := range want {
			g, x := got[i], want[i]
			if g != g && x != x {
				continue
			}
			if math.Float32bits(g) != math.Float32bits(x) {
				t.Fatalf("%s: dst[%d] = %v, want %v (%d elements covered)", body.name, i, g, x, body.done)
			}
		}
	}
}
