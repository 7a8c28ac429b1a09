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
// The helpers stay warm between calls. A helper that has drained its
// call's items lingers for up to lingerPolls polls of the newest call,
// yielding its P with runtime.Gosched between polls, and joins the next
// call that has a seat (workers-1 per call) and items left; when the
// polls run out, or when a call it joined had no item left for it, it
// exits, so no goroutine outlives its linger. A call
// starts a new goroutine only while fewer than workers-1 helpers are
// alive, lingering or busy, and at most min(GOMAXPROCS, NumCPU)-1
// helpers linger at once: a lingerer on a P with no CPU of its own would
// only take time from the caller. The caller drains items too, and polls
// the same way before it parks on the last one. The bound is a poll
// count, not wall time, so the pool reads no clock.
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
	j := &job{n: int64(n), fn: fn}
	j.seats.Store(int32(workers - 1))
	j.wg.Add(1) // done by whoever finishes the last item, for a parked caller
	posted.Store(j)
	for k := int(live.Load()); k < workers-1 && j.sit(); k++ {
		started.Add(1)
		live.Add(1)
		go help(j)
	}
	j.finish(j.drain())
	posted.CompareAndSwap(j, nil) // every item is handed out: nobody should join
	j.wait()
}

// lingerPolls bounds a helper's idle life, in polls of the posted call,
// and a caller's polling wait before it parks. On a 2-vCPU amd64 host a
// poll (one runtime.Gosched) takes about 0.15 µs, so 2000 polls last
// about 0.3 ms: longer than the serving engine's serial work between two
// fanned-out generation steps of decode_heavy (9 µs at the median, 90 µs
// at p99), short enough that an idle process soon stops spinning.
const lingerPolls = 2000

var (
	posted    atomic.Pointer[job] // the newest call that may still hand out items
	lingering atomic.Int32        // helpers idle and polling posted
	live      atomic.Int32        // helper goroutines not yet exited, busy or lingering
	started   atomic.Int64        // helper goroutines ever started; tests read it
)

// job is one ForEach call's shared state, a single allocation.
type job struct {
	next  atomic.Int64 // items handed out so far
	done  atomic.Int64 // items finished
	seats atomic.Int32 // helpers that may still join
	wg    sync.WaitGroup
	n     int64
	fn    func(i int)
}

// sit takes a helper's seat at j if j still has one and items left.
func (j *job) sit() bool {
	if j.next.Load() >= j.n {
		return false
	}
	for s := j.seats.Load(); s > 0; s = j.seats.Load() {
		if j.seats.CompareAndSwap(s, s-1) {
			return true
		}
	}
	return false
}

// drain runs items until none is left and returns how many it ran.
func (j *job) drain() int64 {
	ran := int64(0)
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return ran
		}
		j.fn(int(i))
		ran++
	}
}

// finish counts ran items as finished; the drainer that finishes the last
// item releases the caller.
func (j *job) finish(ran int64) {
	if ran > 0 && j.done.Add(ran) == j.n {
		j.wg.Done()
	}
}

// wait returns once every item has finished. It polls as a lingering
// helper does before it parks: a caller that parks at once leaves its P
// idle, the helper's finish then has to wake a thread for it, and the
// helper, which yields while that thread wakes, sits out the start of
// the next call.
func (j *job) wait() {
	for p := 0; j.done.Load() < j.n; p++ {
		if p == lingerPolls {
			j.wg.Wait()
			return
		}
		runtime.Gosched()
	}
}

// help is a helper goroutine: it drains j, then lingers and drains each
// call it joins until it finds none within lingerPolls polls, joins one
// too late to run an item, or finds enough helpers already lingering.
func help(j *job) {
	defer live.Add(-1)
	for fresh := true; j != nil; fresh = false {
		ran := j.drain()
		j.finish(ran)
		// A fresh helper lingers even when its thread woke too late for
		// its call's items. One that joined from lingering and found none
		// left has waited for a call shorter than a poll: calls that short
		// do not need it, so it exits.
		if ran == 0 && !fresh || !settle() {
			return
		}
		j = await()
	}
}

// settle counts the calling helper as lingering if fewer than
// min(GOMAXPROCS, NumCPU)-1 helpers already do.
func settle() bool {
	most := int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU()) - 1)
	for l := lingering.Load(); l < most; l = lingering.Load() {
		if lingering.CompareAndSwap(l, l+1) {
			return true
		}
	}
	return false
}

// await polls for a call to join, up to lingerPolls times. It leaves the
// lingering count either way and returns the joined call, or nil.
func await() *job {
	for p := 0; p < lingerPolls; p++ {
		if j := posted.Load(); j != nil && j.sit() {
			lingering.Add(-1)
			return j
		}
		runtime.Gosched()
	}
	lingering.Add(-1)
	return nil
}
