package cluster

// The cached fleet view. Every place the cluster changes an engine —
// dispatch, Open, an instance step, a fault, a re-dispatch, a KV
// adoption, a session reap — calls touch for that engine afterwards, and
// touch is the one place engine state is read back. It re-keys the
// engine in the step heap next() reads, refreshes its snapshot in the
// routable view route() reads and in the least-loaded policy's heap, and
// raises the running Clock. A cluster event therefore costs O(log N) in the fleet
// width instead of a scan of every engine.

import (
	"slices"

	"diffkv/internal/disagg"
	"diffkv/internal/gpusim"
	"diffkv/internal/mathx"
)

// fleetView is what the cluster last read back from its engines.
type fleetView struct {
	// snap is each instance's snapshot as of its last touch
	snap []Snapshot
	// view is the routable subset of snap in ascending ID order: not down,
	// not decode-pool, queue below MaxQueueDepth. route hands it to the
	// policy as is.
	view []Snapshot
	// loads orders view's instances under less for the builtin
	// least-loaded policy (leastOfView); nil under any other policy
	loads *mathx.IndexedHeap
	// stepQ holds every live instance with work, keyed (stepAt, ID): its
	// top is the earliest instance step
	stepQ  *mathx.IndexedHeap
	stepAt []float64
	// busy marks instances holding work (Engine.HasWork), down ones
	// included; working counts them
	busy    []bool
	working int
	// sessions is each engine's OpenSessions as of its last touch
	sessions []int
	// clock is the running max of engine clocks (each is monotone)
	clock gpusim.Micros
	// filtered is the buffer of snapshots(), the rare filtered views
	filtered []Snapshot
}

// initView sizes the cached view for n instances and touches every one.
func (c *Cluster) initView(n int) {
	c.snap = make([]Snapshot, n)
	c.view = make([]Snapshot, 0, n)
	c.stepAt = make([]float64, n)
	c.stepQ = mathx.NewIndexedHeap(n, func(a, b int) bool {
		return c.stepAt[a] < c.stepAt[b] || (c.stepAt[a] == c.stepAt[b] && a < b)
	})
	if lr, ok := c.policy.(loadRanked); ok {
		c.loads = mathx.NewIndexedHeap(n, func(a, b int) bool { return less(&c.snap[a], &c.snap[b]) })
		lr.rankLoads(c.leastOfView)
	}
	c.busy = make([]bool, n)
	c.sessions = make([]int, n)
	c.filtered = make([]Snapshot, 0, n)
	for i := range n {
		c.snap[i] = Snapshot{ID: i, Role: c.Role(i)}
		c.touch(i)
	}
}

// touch reads instance i back after the cluster changed it: its step
// time, work, snapshot, routability, open sessions and clock.
func (c *Cluster) touch(i int) {
	e := c.engines[i]
	down := c.down(i)
	if t, ok := e.NextTime(); ok && !down {
		c.stepAt[i] = float64(t)
		c.stepQ.Set(i)
	} else {
		c.stepQ.Remove(i) // a down instance does not execute until its restart
	}
	if w := e.HasWork(); w != c.busy[i] {
		c.busy[i] = w
		if w {
			c.working++
		} else {
			c.working--
		}
	}
	c.sessions[i] = e.OpenSessions()
	c.clock = max(c.clock, e.Clock())

	s := &c.snap[i]
	c.load(i, s)
	routable := !down && s.Role != disagg.RoleDecode &&
		(c.cfg.MaxQueueDepth <= 0 || s.QueueDepth < c.cfg.MaxQueueDepth)
	at, in := c.viewAt(i)
	switch {
	case routable && in:
		c.load(i, &c.view[at])
	case routable:
		c.view = slices.Insert(c.view, at, *s)
	case in:
		c.view = slices.Delete(c.view, at, at+1)
	}
	if c.loads != nil {
		if routable {
			c.loads.Set(i)
		} else {
			c.loads.Remove(i)
		}
	}
}

// leastOfView returns the least-loaded instance of snaps under less from
// the loads heap's top when snaps is the routable view itself, the slice
// route hands the policy, and false for any other slice, which the
// caller scans.
func (c *Cluster) leastOfView(snaps []Snapshot) (int, bool) {
	if len(snaps) == 0 || len(snaps) != len(c.view) || &snaps[0] != &c.view[0] {
		return 0, false
	}
	return c.loads.Top()
}

// load refreshes the load fields of s, instance i's snapshot, with O(1)
// reads, the token counts included. ID and Role are fixed per instance
// and s keeps them: writing scalars alone spares every event the GC
// write barrier a copy of Role's string costs.
func (c *Cluster) load(i int, s *Snapshot) {
	e := c.engines[i]
	s.QueueDepth, s.Running = e.QueueDepth(), e.RunningCount()
	s.ResidentTokens, s.SwappedTokens = e.ResidentTokens(), e.SwappedTokens()
	s.Degraded = c.InstanceHealth(i) == Degraded
}

// viewAt finds instance i in the ID-ordered view: its index, or where it
// would be inserted, and whether it is there. The view usually holds
// every instance, so slot i is tried before a binary search.
func (c *Cluster) viewAt(i int) (int, bool) {
	if i < len(c.view) && c.view[i].ID == i {
		return i, true
	}
	lo, hi := 0, min(i, len(c.view))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.view[m].ID < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.view) && c.view[lo].ID == i
}

// resync touches every engine whose open-session count moved since its
// last touch. A session cancelled outside its engine's step — a direct
// Session.Cancel between events or from a token callback during another
// engine's step, or the engine's own reap of a done context — changes
// its engine behind the cluster's back, and between touches that count
// can only fall. Every read of the cache that may follow such a cancel
// resyncs first: Open, Step (through ReapSessions), NextTime and the
// filtered views of crash re-dispatch and decode placement.
func (c *Cluster) resync() {
	if !c.sessionMode {
		return
	}
	for i, e := range c.engines {
		if e.OpenSessions() != c.sessions[i] {
			c.touch(i)
		}
	}
}
