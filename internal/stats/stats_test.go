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
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
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

func TestSummaryMerge(t *testing.T) {
	var a, b, all Summary
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, v := range vals {
		all.Add(v)
		if i < 4 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Fatalf("merged mean = %v vs %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Fatalf("merged var = %v vs %v", a.Var(), all.Var())
	}
	if a.Min() != 1 || a.Max() != 10 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed summary")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty failed")
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

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.75 {
		t.Fatalf("At(2) = %v, want 0.75", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 {
		t.Fatal("empty CDF should return 0")
	}
	xs, ps := c.Points(5)
	if xs != nil || ps != nil {
		t.Fatal("empty CDF points should be nil")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4, 9, 7})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("points lengths: %d %d", len(xs), len(ps))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ps[i] < ps[i-1] {
			t.Fatalf("CDF points not monotone: %v %v", xs, ps)
		}
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

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1, 2.5, 5, 9.99, 10, 11} {
		h.Add(v)
	}
	buckets, under, over := h.Counts()
	if under != 1 || over != 2 {
		t.Fatalf("under/over = %d/%d", under, over)
	}
	if buckets[0] != 2 { // 0, 1
		t.Fatalf("bucket0 = %d", buckets[0])
	}
	if buckets[1] != 1 { // 2.5
		t.Fatalf("bucket1 = %d", buckets[1])
	}
	if buckets[4] != 1 { // 9.99
		t.Fatalf("bucket4 = %d", buckets[4])
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 5; i++ {
		h.Add(3.5)
	}
	h.Add(7.5)
	if got := h.Mode(); got != 3.5 {
		t.Fatalf("Mode = %v, want 3.5", got)
	}
}

func TestHistogramInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 0, 5)
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		123.4:  "123",
		12.34:  "12.3",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(1e-6); got != "1.00e-06" {
		t.Fatalf("FormatFloat(1e-6) = %q", got)
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

// Property: CDF.At is monotone.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []int8, probes []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		c := NewCDF(xs)
		prevX, prevP := math.Inf(-1), 0.0
		ps := make([]float64, len(probes))
		for i, p := range probes {
			ps[i] = float64(p)
		}
		// probe in sorted order
		for _, x := range ps {
			if x < prevX {
				continue
			}
			p := c.At(x)
			if x >= prevX && p < prevP {
				return false
			}
			prevX, prevP = x, p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
