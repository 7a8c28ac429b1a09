package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// sample variance of that classic dataset is 32/7
	if math.Abs(s.Var()-32.0/7.0) > 1e-9 {
		t.Fatalf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Fatal("empty summary should be zero-valued")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3)
	if s.Var() != 0 {
		t.Fatalf("single-sample variance = %v", s.Var())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatalf("median = %v", Quantile(xs, 0.5))
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

// SummarizeLatency is the one-sort form of three Quantile calls plus an
// input-order mean: bit-equal on every field, input untouched.
func TestSummarizeLatencyMatchesQuantile(t *testing.T) {
	if got := SummarizeLatency(nil); got != (LatencySummary{}) {
		t.Fatalf("empty sample = %+v, want zero", got)
	}
	for _, n := range []int{1, 2, 7, 100, 1001} {
		xs := make([]float64, n)
		var sum float64
		for i := range xs {
			xs[i] = math.Mod(float64(i)*0.6180339887, 1) * 3.7
			sum += xs[i]
		}
		orig := append([]float64(nil), xs...)
		got := SummarizeLatency(xs)
		want := LatencySummary{
			P50: Quantile(xs, 0.50), P95: Quantile(xs, 0.95), P99: Quantile(xs, 0.99),
			Mean: sum / float64(n),
		}
		if got != want {
			t.Fatalf("n=%d: got %+v, want %+v", n, got, want)
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("n=%d: input mutated at %d", n, i)
			}
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestOrdersOfMagnitude(t *testing.T) {
	c := NewCDF([]float64{1e-6, 1e-3, 1})
	if got := c.OrdersOfMagnitude(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("OoM = %v, want 6", got)
	}
	// non-positive values ignored
	c2 := NewCDF([]float64{-1, 0, 0.1, 10})
	if got := c2.OrdersOfMagnitude(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("OoM = %v, want 2", got)
	}
	if NewCDF([]float64{5}).OrdersOfMagnitude() != 0 {
		t.Fatal("single value OoM should be 0")
	}
}

// Property: streaming summary mean matches direct mean.
func TestSummaryMeanProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		var direct float64
		for _, v := range raw {
			s.Add(float64(v))
			direct += float64(v)
		}
		direct /= float64(len(raw))
		return math.Abs(s.Mean()-direct) < 1e-6*(1+math.Abs(direct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
