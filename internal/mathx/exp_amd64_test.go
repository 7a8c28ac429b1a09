package mathx

import (
	"math"
	"testing"
)

// On amd64, math.Exp is assembly with two paths (math/exp_amd64.s): a
// fused multiply-add path taken when the CPU has AVX and FMA
// (math.useFMA), and an SSE path of separate multiplies and adds. They
// round differently, and LogNorm, Softmax and the synthetic tensors all
// reach math.Exp (Softmax and LogNormInto through ExpVec, whose kernel
// transcribes the AVX+FMA path and runs only where math.Exp takes it), so
// every serving digest and every checked-in table holds only on the
// AVX+FMA path. TestExpTakesFMAPath pins it.
func TestExpTakesFMAPath(t *testing.T) {
	const x, want = 34.0 / 1024, 0x3ff08a487359f24d
	if got := math.Float64bits(math.Exp(x)); got != want {
		t.Fatalf("math.Exp(34/1024) = %#x, want %#x (the AVX+FMA path; the SSE path gives %#x): "+
			"every serving digest and table in this repository assumes math.Exp's AVX+FMA path, "+
			"and this CPU takes another", got, uint64(want), math.Float64bits(expSSE(x)))
	}
	if math.Float64bits(expSSE(x)) == want {
		t.Fatal("the SSE transcription agrees on the pinned input: the pin cannot tell the paths apart")
	}
	// a grid over LogNorm's arguments in the serving path (sigma 0.3, up to
	// six standard deviations): math.Exp is the FMA transcription on every
	// input, and the SSE path differs on some
	const n = 1 << 16
	sse := 0
	for i := 0; i < n; i++ {
		x := -1.8 + 3.6*float64(i)/n
		got := math.Float64bits(math.Exp(x))
		if f := math.Float64bits(expFMA(x)); got != f {
			t.Fatalf("math.Exp(%v) = %#x, the AVX+FMA path gives %#x: every serving digest and table assumes that path", x, got, f)
		}
		if got != math.Float64bits(expSSE(x)) {
			sse++
		}
	}
	if sse == 0 {
		t.Fatal("the SSE transcription agrees on every input: the grid cannot tell the paths apart")
	}
	t.Logf("the SSE path differs on %d of %d inputs", sse, n)
}

// The constants of math/exp_amd64.s.
const (
	expLog2E = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor holds the Taylor coefficients 1/9! … 1/3!, highest first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
}

// expSSE transcribes the SSE path of math.Exp's amd64 assembly for an x
// whose result is a normal float64: every product and sum is rounded on
// its own, the products converted explicitly so that no compiler fuses
// them.
func expSSE(x float64) float64 {
	k := math.RoundToEven(x * expLog2E)
	r := x - float64(k*expLn2U)
	r = r - float64(k*expLn2L)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*r) + c
	}
	p = float64(p*r) + 0.5
	p = float64(p*r) + 1
	r *= p
	for i := 0; i < 4; i++ {
		r *= r + 2
	}
	return math.Ldexp(r+1, int(k))
}

// expFMA transcribes the AVX+FMA path of the same assembly: the reduction
// and the Horner steps fuse, and the last doubling step fuses with the
// final +1.
func expFMA(x float64) float64 {
	k := math.RoundToEven(x * expLog2E)
	r := math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, r, c)
	}
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	return math.Ldexp(math.FMA(r, r+2, 1), int(k))
}
