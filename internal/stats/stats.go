// Package stats provides the small statistics toolkit used by the
// experiment harnesses: streaming summaries, quantiles, latency summaries
// and the empirical CDF behind Fig. 2's orders-of-magnitude claim.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates a streaming mean / variance (Welford).
type Summary struct {
	n        int
	mean, m2 float64
}

// Add folds a value into the summary.
func (s *Summary) Add(x float64) {
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
