package mathx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0)), the calling one among them,
// and returns when all calls have. It is the one worker pool of the module:
// the experiment harness fans independent reps/configs out through it,
// core.Engine fans out a sequence's sampled (layer, head) pairs, and a
// serving generation step fans out once, each worker drawing and planning
// its own chunk of sequences' heads.
//
// The determinism contract: each item derives its own RNG stream from a
// root seed (RNG.SplitAt(i) or RNG.Ahead(offset) — the parent is read,
// never advanced) and writes only to its own result index. The caller
// reduces the results sequentially in index order. Under that contract
// scheduling cannot change any output bit, so workers only moves
// wall-clock time.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := &pool{n: n, fn: fn}
	p.wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer p.wg.Done()
			p.drain()
		}()
	}
	p.drain()
	p.wg.Wait()
}

// pool is one ForEach call's shared state, a single allocation.
type pool struct {
	next atomic.Int64 // items handed out so far
	wg   sync.WaitGroup
	n    int
	fn   func(i int)
}

// drain runs items until none is left.
func (p *pool) drain() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.fn(i)
	}
}
