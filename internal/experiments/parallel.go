package experiments

import "diffkv/internal/mathx"

// forEach runs fn(i) for every i in [0, n) on the harness's worker pool
// (Opts.Workers goroutines; 0 means runtime.GOMAXPROCS(0)). Independent
// reps/configs of a figure fan out while the table stays bit-identical
// for every Workers value, under mathx.ForEach's determinism contract.
func (o Opts) forEach(n int, fn func(i int)) { mathx.ForEach(n, o.Workers, fn) }

// meanOf reduces a per-index result slice sequentially (index order), so
// parallel and sequential runs agree bit-for-bit.
func meanOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
