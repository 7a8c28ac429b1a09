package mathx

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		hits := make([]int, n)
		ForEach(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(0, 4, func(i int) { t.Fatal("fn called for n=0") })
}

// spin burns about k polls' worth of scheduler time, so an item is still
// running when other workers look for more.
func spin(k int) {
	for i := 0; i < k; i++ {
		runtime.Gosched()
	}
}

// checkOnce runs ForEach(n, workers) with items that spin a while and then
// write their own slot, and reports any index not run exactly once. The
// slots are plain ints read after ForEach returns: under -race an item
// still running at that point is a reported race, and without -race its
// slot still reads 0.
func checkOnce(t *testing.T, name string, n, workers int) {
	hits := make([]int, n)
	ForEach(n, workers, func(i int) {
		spin(i % 7 * 20)
		hits[i]++
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("%s: index %d of %d ran %d times", name, i, n, h)
			return
		}
	}
}

// Every call shape the module uses, on 1, 2 and 8 Ps: fewer items than
// workers, more workers than Ps (the experiment harness's 8-worker runner
// on a 2-vCPU host), back-to-back calls that a warm helper joins, and
// calls made while helpers from earlier calls still linger.
func TestForEachRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range []struct {
				name       string
				n, workers int
			}{
				{"n<workers", 3, 8},
				{"n=workers", 2, 2},
				{"workers>GOMAXPROCS", 64, 8},
				{"default workers", 100, 0},
			} {
				for rep := 0; rep < 20; rep++ {
					checkOnce(t, c.name, c.n, c.workers)
				}
			}
		}()
	}
}

// Several goroutines call ForEach at once, so calls overwrite each
// other's posting and lingering helpers join whichever they find.
func TestForEachConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				n := 5 + (g*7+rep)%40
				hits := make([]int, n)
				ForEach(n, 1+g%4, func(i int) {
					spin(i % 5 * 10)
					hits[i]++
				})
				for i, h := range hits {
					if h != 1 {
						t.Errorf("caller %d rep %d: index %d ran %d times", g, rep, i, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// An item that calls ForEach itself, as a harness item calls
// core.Engine.RunSequence, whose head fan-out is a ForEach: the inner call
// replaces the outer one's posting, and both return only after their own
// items have finished.
func TestForEachNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const outer, inner = 8, 12
	for rep := 0; rep < 10; rep++ {
		hits := make([][]int, outer)
		ForEach(outer, 8, func(i int) {
			hits[i] = make([]int, inner)
			ForEach(inner, 0, func(k int) {
				spin(k % 3 * 10)
				hits[i][k]++
			})
		})
		for i := range hits {
			for k, h := range hits[i] {
				if h != 1 {
					t.Fatalf("rep %d: item (%d, %d) ran %d times", rep, i, k, h)
				}
			}
		}
	}
}

// waitIdle waits until every helper has exited. Each leaves within
// lingerPolls polls of its last call, so the wait ends unless one never
// does; the test's timeout catches that.
func waitIdle() {
	for live.Load() != 0 {
		runtime.Gosched()
	}
	if l := lingering.Load(); l != 0 {
		panic("no helper is live, yet the lingering count is not 0")
	}
}

// A helper that finds no call within its polls exits, and the next call
// after that starts a new one: no helper outlives its linger.
func TestForEachHelpersExitWhenIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: no helper ever lingers")
	}
	ForEach(16, 2, func(i int) { spin(10) })
	waitIdle()
	before := started.Load()
	ForEach(16, 2, func(i int) { spin(10) })
	if got := started.Load() - before; got != 1 {
		t.Fatalf("a call after every helper left started %d helpers, want 1", got)
	}
	waitIdle()
}

// A call while a helper lingers starts none: the lingering helper joins.
func TestForEachReusesLingeringHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: no helper ever lingers")
	}
	waitIdle()
	before := started.Load()
	for rep := 0; rep < 50; rep++ {
		ForEach(8, 2, func(i int) { spin(5) })
	}
	// The first call starts the helper; a loaded host may let it run out
	// its polls between two calls now and then, never on most of them.
	if got := started.Load() - before; got < 1 || got > 10 {
		t.Fatalf("50 back-to-back calls started %d helpers, want 1 and few more", got)
	}
	waitIdle()
}

// However many callers ask for however many workers, at most
// min(GOMAXPROCS, NumCPU)-1 helpers linger at once.
func TestForEachLingeringBound(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			most := int32(min(procs, runtime.NumCPU()) - 1)
			var peak atomic.Int32
			stop := make(chan struct{})
			watched := make(chan struct{})
			go func() {
				defer close(watched)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if l := lingering.Load(); l > peak.Load() {
						peak.Store(l)
					}
					runtime.Gosched()
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 20; rep++ {
						ForEach(32, 8, func(i int) { spin(i % 4 * 5) })
					}
				}()
			}
			wg.Wait()
			close(stop)
			<-watched
			if p := peak.Load(); p > most {
				t.Errorf("GOMAXPROCS %d: %d helpers lingered at once, at most %d may", procs, p, most)
			}
			waitIdle()
		}()
	}
}

// spawnEach is ForEach as it was before its helpers lingered: every call
// starts workers-1 goroutines and waits for them.
func spawnEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// BenchmarkForEach runs 12 items of about 5, 14 and 29 µs of arithmetic
// each (on a 2-vCPU amd64 host) back to back: serially, on spawnEach
// (each call starts its helper, whose thread must wake) and on ForEach
// (the helper from the last call is still polling and joins). Compare the
// three at -cpu 2.
func BenchmarkForEach(b *testing.B) {
	const items = 12
	sink := make([]uint64, items)
	for _, iters := range []int{2000, 6000, 12000} {
		item := func(i int) {
			x := uint64(i) + 1
			for k := 0; k < iters; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink[i] = x
		}
		b.Run(fmt.Sprintf("iters=%d/serial", iters), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for i := 0; i < items; i++ {
					item(i)
				}
			}
		})
		b.Run(fmt.Sprintf("iters=%d/spawn", iters), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				spawnEach(items, runtime.GOMAXPROCS(0), item)
			}
		})
		b.Run(fmt.Sprintf("iters=%d/warm", iters), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ForEach(items, 0, item)
			}
		})
	}
}
