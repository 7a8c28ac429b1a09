package mathx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0)) and returns when all calls
// have. It is the one worker pool of the module: the experiment harness
// fans independent reps/configs out through it, and core.Engine fans out a
// sequence's sampled (layer, head) pairs.
//
// The determinism contract: each item derives its own RNG stream from a
// root seed (RNG.SplitAt(i) — the parent is read, never advanced) and
// writes only to its own result index. The caller reduces the results
// sequentially in index order. Under that contract scheduling cannot
// change any output bit, so workers only moves wall-clock time.
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
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
