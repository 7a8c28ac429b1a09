package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"diffkv/internal/serving"
	"diffkv/internal/stats"
)

// pctlLadder is the percentiles a timing may be reported at, ascending,
// each with the share of the sample beyond it written as one in tail (so
// the test below stays in whole numbers).
var pctlLadder = []struct {
	p    float64
	tail int
}{{0.50, 2}, {0.90, 10}, {0.95, 20}, {0.99, 100}, {0.999, 1000}}

// highestPctl returns the highest percentile of the ladder that still has
// at least ten samples beyond it among n samples, or false when even the
// median has not: a p99 of 200 samples rests on two of them.
func highestPctl(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, l := range pctlLadder {
		if n >= 10*l.tail {
			best, ok = l.p, true
		}
	}
	return best, ok
}

// quantile is stats.Quantile that tolerates an empty sample (a workload
// that does not exercise the layer reports 0).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timing renders a sample as "p50 … pXX … (n=N)" at the median and the
// highest percentile the sample supports, always with the sample count.
func timing(xs []float64, unit string) string {
	p, ok := highestPctl(len(xs))
	if !ok {
		return fmt.Sprintf("p50 %.4g %s (n=%d, too few for a tail percentile)", median(xs), unit, len(xs))
	}
	return fmt.Sprintf("p50 %.4g %s, p%g %.4g %s (n=%d)", median(xs), unit, p*100, quantile(xs, p), unit, len(xs))
}

// digest hashes the ordered outputs of a run. Floats go in by their exact
// decimal expansion, so two runs agree only when they agree bit for bit.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// addCompletion folds one completion record into the digest.
func (d *digest) addCompletion(cp serving.Completion) {
	d.add("%d %x %x %d %d %d|", cp.Req.ID, cp.FirstTokenUs, cp.DoneUs,
		cp.CachedPrefixTokens, cp.Preemptions, cp.Attempts)
}
