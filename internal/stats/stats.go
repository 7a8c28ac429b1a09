// Package stats provides the small statistics toolkit used by the
// experiment harnesses: streaming summaries, quantiles, histograms and CDFs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a streaming mean / variance / min / max (Welford).
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds a value into the summary.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (0 for fewer than two observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Merge folds another summary into s.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	mean := s.mean + d*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation. It copies and sorts its input. Panics on empty input or
// out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile q out of [0,1]")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return sortedQuantile(cp, q)
}

// sortedQuantile is Quantile over an already sorted, non-empty sample.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LatencySummary summarizes a latency distribution in seconds.
type LatencySummary struct {
	P50, P95, P99, Mean float64
}

// SummarizeLatency returns the exact p50/p95/p99 (Quantile's
// interpolation, one copy-and-sort for all three) and the mean of xs;
// the zero summary for an empty sample.
func SummarizeLatency(xs []float64) LatencySummary {
	if len(xs) == 0 {
		return LatencySummary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return LatencySummary{
		P50:  sortedQuantile(cp, 0.50),
		P95:  sortedQuantile(cp, 0.95),
		P99:  sortedQuantile(cp, 0.99),
		Mean: sum / float64(len(xs)),
	}
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample (copied and sorted).
func NewCDF(xs []float64) *CDF {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return &CDF{sorted: cp}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	// include equal values
	for idx < len(c.sorted) && c.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Points returns n (x, P(X<=x)) pairs evenly spaced in rank order —
// convenient for printing CDF series such as paper Fig. 2.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if n <= 0 || len(c.sorted) == 0 {
		return nil, nil
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		rank := float64(i) / float64(n-1)
		if n == 1 {
			rank = 1
		}
		idx := int(rank * float64(len(c.sorted)-1))
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(len(c.sorted))
	}
	return xs, ps
}

// OrdersOfMagnitude returns log10(max/min) over the strictly positive values
// of the sample; 0 if fewer than two positive values exist. Used to verify
// the Fig. 2 claim that attention scores span ~7 orders of magnitude while
// value norms span at most ~2.
func (c *CDF) OrdersOfMagnitude() float64 {
	var minP, maxP float64
	seen := false
	for _, v := range c.sorted {
		if v <= 0 {
			continue
		}
		if !seen {
			minP, maxP = v, v
			seen = true
		} else {
			if v < minP {
				minP = v
			}
			if v > maxP {
				maxP = v
			}
		}
	}
	if !seen || minP == maxP {
		return 0
	}
	return math.Log10(maxP / minP)
}

// Histogram is a fixed-width bucket histogram over [lo, hi).
type Histogram struct {
	lo, hi  float64
	buckets []int
	under   int
	over    int
	total   int
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]int, n)}
}

// Add folds a value into the histogram.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		idx := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.buckets)))
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
		h.buckets[idx]++
	}
}

// Counts returns the per-bucket counts plus (under, over) outliers.
func (h *Histogram) Counts() (buckets []int, under, over int) {
	return append([]int(nil), h.buckets...), h.under, h.over
}

// Total returns the number of values added.
func (h *Histogram) Total() int { return h.total }

// Mode returns the midpoint of the fullest bucket.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.buckets {
		if c > h.buckets[best] {
			best = i
		}
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	return h.lo + (float64(best)+0.5)*width
}

// FormatFloat renders a float with sensible precision for table output.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.001:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}
