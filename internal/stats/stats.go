// Package stats provides the small statistics toolkit used by the
// experiment harnesses: streaming summaries, quantiles, latency summaries
// and the empirical CDF behind Fig. 2's orders-of-magnitude claim.
package stats

import (
	"math"
	"math/bits"
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
// interpolation) and the mean of xs; the zero summary for an empty
// sample. The quantiles read only the order statistics at floor and ceil
// of each position, so it selects them on one copy of xs instead of
// sorting it: the values are sort.Float64s' at those ranks. Only the sign
// of a zero may differ, where the sample holds both signs (the sort does
// not order them either).
func SummarizeLatency(xs []float64) LatencySummary {
	if len(xs) == 0 {
		return LatencySummary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	cp := append([]float64(nil), xs...)
	p50, at := selectQuantile(cp, 0.50, 0)
	p95, at := selectQuantile(cp, 0.95, at)
	p99, _ := selectQuantile(cp, 0.99, at)
	return LatencySummary{P50: p50, P95: p95, P99: p99, Mean: sum / float64(len(xs))}
}

// selectQuantile is sortedQuantile(sorted(a), q) by selection. a[from]
// must already hold its rank with a[from:] ordered no lower (a previous
// call's returned rank, or 0), and q must not read a lower rank than
// from. It leaves the rank it selected in place and returns it, so
// ascending quantiles narrow the search.
func selectQuantile(a []float64, q float64, from int) (float64, int) {
	if len(a) == 1 {
		return a[0], 0
	}
	pos := q * float64(len(a)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectRank(a[from:], lo-from)
	if lo == hi {
		return a[lo], lo
	}
	// the rank above lo is the least of what selection left above it
	next := a[lo+1]
	for _, x := range a[lo+2:] {
		if floatLess(x, next) {
			next = x
		}
	}
	frac := pos - float64(lo)
	return a[lo]*(1-frac) + next*frac, lo
}

// selectRank reorders a so that a[k] holds the value of rank k in
// sort.Float64s' order, nothing before it ordered after it and nothing
// after it ordered before it: a quickselect with median-of-three pivots
// and three-way partitions (so duplicates cost nothing), which sorts what
// is left once it has partitioned 2·log2(n) times without converging.
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt, i, gt := lo, lo, hi // a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p
		for i < gt {
			switch {
			case floatLess(a[i], p):
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case floatLess(p, a[i]):
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// floatLess is sort.Float64s' order: NaNs first, then by value.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// median3 returns the middle of three values under floatLess.
func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
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
