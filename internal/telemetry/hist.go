package telemetry

import (
	"fmt"
	"math"
)

// Log-bucketed streaming latency histogram. The bucket layout is fixed
// and shared by every Hist — 10 geometric buckets per decade spanning
// 100µs to 1000s — so histograms from different instances (or different
// runs) merge by adding counts, and a merged quantile equals the
// quantile of the merged stream up to one bucket of resolution (~12%
// relative width). A Hist never forgets (counts are lifetime), costs
// O(1) per observation, and its quantile error is bounded by layout, not
// by which samples a window happened to keep.
const (
	// histMinSec is the lower edge of the first bucket; smaller
	// observations land in the underflow bucket.
	histMinSec = 1e-4
	// histPerDecade buckets per factor-of-10 of latency.
	histPerDecade = 10
	// histDecades spans 1e-4s .. 1e3s.
	histDecades = 7
	histBuckets = histPerDecade * histDecades
)

// histLogMin is ln(histMinSec), precomputed for bucket indexing.
var histLogMin = math.Log10(histMinSec)

// Hist is one latency distribution in seconds. The zero value is ready
// to use. Not goroutine-safe (the Center serializes access).
type Hist struct {
	counts   [histBuckets]int64
	under    int64
	over     int64
	count    int64
	sum      float64
	min, max float64
}

// Add folds one observation (seconds) into the histogram.
func (h *Hist) Add(v float64) {
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	idx := bucketIndex(v)
	switch {
	case idx < 0:
		h.under++
	case idx >= histBuckets:
		h.over++
	default:
		h.counts[idx]++
	}
}

// bucketIndex maps an observation to its bucket (negative = underflow,
// >= histBuckets = overflow).
func bucketIndex(v float64) int {
	if v < histMinSec {
		return -1
	}
	idx := int((math.Log10(v) - histLogMin) * histPerDecade)
	if idx >= histBuckets {
		return histBuckets
	}
	return idx
}

// bucketUpper returns the upper bound (seconds) of bucket i.
func bucketUpper(i int) float64 {
	return histMinSec * math.Pow(10, float64(i+1)/histPerDecade)
}

// bucketLower returns the lower bound (seconds) of bucket i.
func bucketLower(i int) float64 {
	return histMinSec * math.Pow(10, float64(i)/histPerDecade)
}

// Merge adds another histogram's counts into h. Layouts are identical by
// construction, so this is exact.
func (h *Hist) Merge(o *Hist) {
	if o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.under += o.under
	h.over += o.over
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the summed observations (seconds).
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the exact mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by geometric
// interpolation within the covering bucket, clamped to the observed
// min/max so the extremes stay exact. Returns 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count-1)
	// the extreme ranks are known exactly — no bucket estimate needed
	if rank <= 0 {
		return h.min
	}
	if rank >= float64(h.count-1) {
		return h.max
	}
	var cum float64
	est := func(lo, hi, before, in float64) float64 {
		// position of rank within this bucket's span, log-interpolated
		frac := 0.5
		if in > 0 {
			frac = (rank - before + 0.5) / in
		}
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo * math.Pow(hi/lo, frac)
	}
	if rank < float64(h.under) {
		// underflow spans (0, histMinSec): interpolate linearly from min
		v := histMinSec
		return clamp(v, h.min, h.max)
	}
	cum = float64(h.under)
	for i := 0; i < histBuckets; i++ {
		in := float64(h.counts[i])
		if rank < cum+in {
			return clamp(est(bucketLower(i), bucketUpper(i), cum, in), h.min, h.max)
		}
		cum += in
	}
	// overflow: everything past the top bound
	return h.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BucketCount is one cumulative exposition bucket: observations <= the
// UpperSec bound.
type BucketCount struct {
	UpperSec   float64 `json:"upper_sec"`
	Cumulative int64   `json:"cumulative"`
}

// CumulativeBuckets returns Prometheus-style cumulative bucket counts at
// every stride-th bound (stride <= 1 emits every bound). The underflow
// bucket folds into the first bound; the caller appends the +Inf bucket
// as Count().
func (h *Hist) CumulativeBuckets(stride int) []BucketCount {
	if stride < 1 {
		stride = 1
	}
	out := make([]BucketCount, 0, histBuckets/stride+1)
	cum := h.under
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if (i+1)%stride == 0 {
			out = append(out, BucketCount{UpperSec: bucketUpper(i), Cumulative: cum})
		}
	}
	return out
}

// LatencySnapshot summarizes a Hist for JSON exposition.
type LatencySnapshot struct {
	Count   int64   `json:"count"`
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P95Sec  float64 `json:"p95_sec"`
	P99Sec  float64 `json:"p99_sec"`
	MaxSec  float64 `json:"max_sec"`
}

// snapshot renders the histogram's summary statistics.
func (h *Hist) snapshot() LatencySnapshot {
	return LatencySnapshot{
		Count:   h.count,
		MeanSec: h.Mean(),
		P50Sec:  h.Quantile(0.50),
		P95Sec:  h.Quantile(0.95),
		P99Sec:  h.Quantile(0.99),
		MaxSec:  h.max,
	}
}

// String aids debugging.
func (h *Hist) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.4fs p50=%.4fs p99=%.4fs}",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
}
