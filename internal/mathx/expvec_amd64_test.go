//go:build amd64 && !race

package mathx

import (
	"math"
	"testing"
)

// On an FMA host the kernels, not their math.Exp and math.Log fallbacks,
// must write every pair whose lanes stay on the main path, and must stop
// at the first pair that does not. A gate that stays off fails here.
func TestVecKernelsRun(t *testing.T) {
	if !expOnFMAPath {
		t.Fatal("ExpVec's kernel is gated off, yet every pin in this repository needs math.Exp's AVX+FMA path (TestExpTakesFMAPath)")
	}
	const n = 1024
	xs, ss, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = -1.8 + 3.6*float64(i)/n
		ss[i] = float64(i+1) / n
	}
	if got := expPairs(dst, xs); got != n {
		t.Fatalf("expPairs wrote %d of %d in-range elements", got, n)
	}
	if got := expKernel(dst, xs[:n-1]); got != n-2 {
		t.Fatalf("expKernel covered %d of %d elements, want the %d of its pairs", got, n-1, n-2)
	}
	if got := logPairs(dst, ss); got != n {
		t.Fatalf("logPairs wrote %d of %d in-range elements", got, n)
	}
	stop := []float64{0.5, 0.25, 1, 2, 0.75, math.NaN(), 3, 4}
	if got := expPairs(dst[:8], stop); got != 4 {
		t.Fatalf("expPairs wrote %d elements of %v, want the 4 before the pair holding NaN", got, stop)
	}
	if got := logPairs(dst[:8], stop); got != 4 {
		t.Fatalf("logPairs wrote %d elements of %v, want the 4 before the pair holding NaN", got, stop)
	}
	// a lane whose result would be subnormal stops expPairs, and a
	// negative one stops logPairs
	if got := expPairs(dst[:4], []float64{1, 1, 1, -709}); got != 2 {
		t.Fatalf("expPairs wrote %d elements up to exp(-709), want 2", got)
	}
	if got := logPairs(dst[:4], []float64{1, 1, -1, 1}); got != 2 {
		t.Fatalf("logPairs wrote %d elements up to log(-1), want 2", got)
	}
}
