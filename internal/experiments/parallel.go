package experiments

import (
	"fmt"

	"diffkv/internal/cluster"
	"diffkv/internal/core"
	"diffkv/internal/mathx"
	"diffkv/internal/workload"
)

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

// The harnesses reach each layer one way: the compression engine through
// sequences, serving engines through runCluster (one instance for a
// single-engine cell).

// sequences runs n sequences of one DiffKV core engine, seeded first,
// first+1, …; they fan out across the worker pool and come back in
// sequence order, so a caller's reduction is the same for every Workers.
func (o Opts) sequences(cfg core.Config, promptLen, genLen, n int, first uint64) []core.SequenceResult {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	out := make([]core.SequenceResult, n)
	o.forEach(n, func(s int) {
		r, err := eng.RunSequence(promptLen, genLen, first+uint64(s))
		if err != nil {
			panic(err)
		}
		out[s] = r
	})
	return out
}

// runCluster runs reqs on a cluster built from cfg and returns it with
// its metrics; a single-engine cell builds a one-instance cluster and
// reads c.Engines()[0].Result(). A request left neither completed,
// cancelled nor failed is a liveness bug, so it panics, naming the cell
// by what.
func runCluster(cfg cluster.Config, reqs []workload.Request, what string) (*cluster.Cluster, cluster.Metrics) {
	c, err := cluster.New(cfg)
	if err != nil {
		panic(err)
	}
	m, err := c.Run(reqs)
	if err != nil {
		panic(err)
	}
	if stuck := m.Stuck(); stuck != 0 {
		panic(fmt.Sprintf("%s left %d requests stuck", what, stuck))
	}
	return c, m
}
