package mathx

import (
	"math"
	"slices"
	"testing"
)

// drawsBetween returns how many Uint64 draws took a stream from state
// before to state after (at most 64).
func drawsBetween(t *testing.T, before, after uint64) int {
	for k := 0; k <= 64; k++ {
		if before+uint64(k)*weyl == after {
			return k
		}
	}
	t.Fatalf("more than 64 draws for one variate")
	return 0
}

// TestNormVecDistribution draws 2^20 ziggurat variates at a fixed seed and
// checks them against the standard normal: moments, two tail masses, and
// the Kolmogorov-Smirnov statistic below its 1 % critical value. It also
// redraws the stream one variate at a time, which must give the same
// values, and counts each variate's Uint64s to show that both slow paths
// run: a base-strip tail (|x| > zigR, always three or more draws) and a
// rejected wedge (|x| ≤ zigR after three or more draws: the attempt, its
// Float64, and a fresh attempt).
func TestNormVecDistribution(t *testing.T) {
	const n = 1 << 20
	bulk := make([]float32, n)
	NewRNG(2024).NormVec(bulk, 1)

	r := NewRNG(2024)
	var one [1]float32
	tails, wedgeRejects := 0, 0
	var sum, sumSq float64
	over2, over3 := 0, 0
	for i, want := range bulk {
		before := r.state
		r.NormVec(one[:], 1)
		if one[0] != want {
			t.Fatalf("variate %d: %v one at a time, %v in bulk", i, one[0], want)
		}
		x := float64(want)
		switch d := drawsBetween(t, before, r.state); {
		case math.Abs(x) > zigR:
			tails++
		case d >= 3:
			wedgeRejects++
		}
		sum += x
		sumSq += x * x
		if math.Abs(x) > 2 {
			over2++
		}
		if math.Abs(x) > 3 {
			over3++
		}
	}
	if tails == 0 || wedgeRejects == 0 {
		t.Errorf("slow paths not reached: %d tail draws, %d wedge rejections", tails, wedgeRejects)
	}

	// tolerances are five standard errors at n = 2^20
	mean := sum / n
	variance := sumSq/n - mean*mean
	p2, p3 := float64(over2)/n, float64(over3)/n
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"mean", mean, 0, 0.005},
		{"variance", variance, 1, 0.007},
		{"P(|x| > 2)", p2, math.Erfc(2 / math.Sqrt2), 0.001},
		{"P(|x| > 3)", p3, math.Erfc(3 / math.Sqrt2), 0.00026},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %.6f, want %.6f ± %g", c.name, c.got, c.want, c.tol)
		}
	}

	sorted := make([]float64, n)
	for i, v := range bulk {
		sorted[i] = float64(v)
	}
	slices.Sort(sorted)
	var ks float64
	for i, x := range sorted {
		cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
		ks = max(ks, cdf-float64(i)/n, float64(i+1)/n-cdf)
	}
	// asymptotic 1 % critical value of the one-sample KS statistic
	if crit := 1.6276 / math.Sqrt(n); ks >= crit {
		t.Errorf("KS statistic %.6f, 1%% critical value %.6f", ks, crit)
	}
	t.Logf("KS %.6f, mean %.5f, variance %.5f, P(|x|>2) %.5f, P(|x|>3) %.6f, %d tail draws, %d wedge rejections",
		ks, mean, variance, p2, p3, tails, wedgeRejects)
}
