package cluster

// Failure recovery: the cluster half of the fault-injection layer. An
// internal/faults Injector expands the scenario's fault plan into a
// deterministic timeline of crash / restart / slowdown events; the
// event loop (events.go) interleaves them with arrivals and instance
// steps in global timestamp order, faults first at equal times. A
// crash marks the instance down, loses its GPU KV state and orphans its
// requests into a re-dispatch queue drained with exponential backoff
// under a per-request retry budget; sequences swapped to the host tier
// survive a crash-with-restart and resume when the instance returns.

import (
	"fmt"
	"sort"

	"diffkv/internal/faults"
	"diffkv/internal/serving"
	"diffkv/internal/trace"
)

// Health is an instance's fault-injection state.
type Health string

// Instance health states: a Healthy instance serves normally, a
// Degraded one is up but slowed (the router down-weights it), a Down
// one is crashed and excluded from routing until its restart.
const (
	Healthy  Health = "healthy"
	Degraded Health = "degraded"
	Down     Health = "down"
)

// redispatch is one crash orphan awaiting re-dispatch at dueUs (its
// backoff deadline). fromInst is the 1-based instance it was lost from,
// keeping terminal-failure trace events in that residency's span tree.
// waits counts re-dispatch attempts that found no live instance.
type redispatch struct {
	o        serving.Orphan
	dueUs    float64
	fromInst int
	waits    int
}

// down reports whether instance i (0-based) is crashed.
func (c *Cluster) down(i int) bool {
	return c.health != nil && c.health[i] == Down
}

// InstanceHealth returns instance i's (0-based) health state.
func (c *Cluster) InstanceHealth(i int) Health {
	if c.health == nil {
		return Healthy
	}
	return c.health[i]
}

// faultDue returns the next fault-event time, false when the injector
// is exhausted or the cluster has nothing left for faults to affect —
// no undispatched arrival, no re-dispatch, no instance work — so an idle
// cluster does not churn through the remaining fault timeline.
func (c *Cluster) faultDue() (float64, bool) {
	if c.inj == nil {
		return 0, false
	}
	at, ok := c.inj.NextAt()
	if !ok {
		return 0, false
	}
	if len(c.pending) == 0 && len(c.redispatchQ) == 0 && !c.engineWork() {
		return 0, false
	}
	return at, true
}

// engineWork reports whether any instance — down ones included, whose
// kept swapped sequences only drain after a restart — holds work.
func (c *Cluster) engineWork() bool {
	for _, e := range c.engines {
		if e.HasWork() {
			return true
		}
	}
	return false
}

// advanceFaults processes every fault event due at or before tUs, so a
// session-mode Open at tUs routes against current instance health.
func (c *Cluster) advanceFaults(tUs float64) error {
	for c.inj != nil {
		at, ok := c.inj.NextAt()
		if !ok || at > tUs {
			return nil
		}
		if err := c.processFault(); err != nil {
			return err
		}
	}
	return nil
}

// processFault applies the injector's next event (fault-event instance
// tags are 1-based, engine indexes 0-based).
func (c *Cluster) processFault() error {
	ev := c.inj.Pop()
	i := ev.Inst - 1
	switch ev.Op {
	case faults.OpCrash:
		return c.processCrash(ev)
	case faults.OpRestart:
		c.engines[i].Restart(ev.AtUs)
		c.health[i] = Healthy
		c.restarts++
		c.emit(trace.Event{Kind: trace.KindHealth, TimeUs: ev.AtUs, Inst: i + 1, Note: string(Healthy)})
		// sequences the host tier carried through the crash resume now
		// instead of recomputing — the measurable crash-insurance payoff
		for _, id := range c.engines[i].SwappedIDs() {
			c.swapRecovered++
			c.emit(trace.Event{Kind: trace.KindRecover, TimeUs: ev.AtUs, Seq: id, Inst: i + 1})
		}
	case faults.OpSlow:
		c.engines[i].SetSlowFactor(ev.Factor)
		c.health[i] = Degraded
		c.emit(trace.Event{Kind: trace.KindHealth, TimeUs: ev.AtUs, Inst: i + 1, Note: string(Degraded)})
	case faults.OpSlowEnd:
		c.engines[i].SetSlowFactor(1)
		if c.health[i] == Degraded {
			c.health[i] = Healthy
		}
		c.emit(trace.Event{Kind: trace.KindHealth, TimeUs: ev.AtUs, Inst: i + 1, Note: string(Healthy)})
	default:
		return fmt.Errorf("cluster: unknown fault op %q", ev.Op)
	}
	return nil
}

// processCrash takes instance ev.Inst down: its GPU KV state is lost,
// its queued and in-flight requests are orphaned into the re-dispatch
// queue (or terminally failed when their retry budget is spent), and —
// when the timeline holds a restart — its host-tier-swapped sequences
// are kept as crash insurance.
func (c *Cluster) processCrash(ev faults.Event) error {
	i := ev.Inst - 1
	keep := c.inj.HasRestart(ev.Inst)
	rep, err := c.engines[i].Crash(ev.AtUs, keep)
	if err != nil {
		return fmt.Errorf("cluster: crash instance %d: %w", i+1, err)
	}
	c.health[i] = Down
	c.crashes++
	c.lostKV += rep.LostKVBytes
	c.emit(trace.Event{Kind: trace.KindHealth, TimeUs: ev.AtUs, Inst: i + 1, Note: string(Down)})
	budget := c.inj.RetryBudget()
	for _, o := range rep.Orphans {
		c.emit(trace.Event{Kind: trace.KindRetry, TimeUs: ev.AtUs, Seq: o.Req.ID, Inst: i + 1, Note: "crash"})
		if o.Attempts > budget {
			c.fail(o, ev.AtUs, i+1, "retry budget exhausted")
			continue
		}
		c.enqueueRedispatch(redispatch{
			o:        o,
			dueUs:    ev.AtUs + c.inj.Backoff(o.Attempts),
			fromInst: i + 1,
		})
	}
	return nil
}

// enqueueRedispatch inserts rd keeping the queue ordered by deadline
// (ties keep insertion order, which is itself deterministic).
func (c *Cluster) enqueueRedispatch(rd redispatch) {
	i := sort.Search(len(c.redispatchQ), func(i int) bool {
		return c.redispatchQ[i].dueUs > rd.dueUs
	})
	c.redispatchQ = append(c.redispatchQ, redispatch{})
	copy(c.redispatchQ[i+1:], c.redispatchQ[i:])
	c.redispatchQ[i] = rd
}

// processRedispatch re-dispatches the queue head to the least-loaded
// live instance. When every instance is down the orphan goes back on
// the queue with another backoff — each such wait consumes retry
// budget, so requests cannot circulate forever through a dead fleet.
func (c *Cluster) processRedispatch() error {
	rd := c.redispatchQ[0]
	c.redispatchQ = c.redispatchQ[1:]
	idx, ok := c.routeRedispatch()
	if !ok {
		rd.waits++
		if rd.o.Attempts+rd.waits > c.inj.RetryBudget() {
			c.fail(rd.o, rd.dueUs, rd.fromInst, "no live instances")
			return nil
		}
		rd.dueUs += c.inj.Backoff(rd.o.Attempts + rd.waits)
		c.enqueueRedispatch(rd)
		return nil
	}
	if err := c.engines[idx].Readmit(rd.o, rd.dueUs); err != nil {
		return fmt.Errorf("cluster: redispatch request %d to instance %d: %w", rd.o.Req.ID, idx+1, err)
	}
	c.redispatchN++
	c.perInstRedisp[idx]++
	c.observe(rd.o.Req, idx)
	c.emit(trace.Event{Kind: trace.KindDispatch, TimeUs: rd.dueUs, Seq: rd.o.Req.ID, Inst: idx + 1, Note: "redispatch"})
	return nil
}

// routeRedispatch picks the least-loaded live instance for a crash
// orphan. Unlike first-dispatch routing it ignores MaxQueueDepth — an
// already-admitted request is never shed by saturation, only by its
// retry budget.
func (c *Cluster) routeRedispatch() (int, bool) {
	best, ok := Snapshot{}, false
	for i := range c.engines {
		if c.down(i) {
			continue
		}
		if s := c.snapshot(i); !ok || less(s, best) {
			best, ok = s, true
		}
	}
	return best.ID, ok
}

// fail terminally accounts a crash orphan that ran out of retries: the
// failure is counted, traced into the span tree of its last residency,
// and its session (if any) aborted with serving.ErrFailed.
func (c *Cluster) fail(o serving.Orphan, tUs float64, inst int, reason string) {
	c.failedN++
	c.emit(trace.Event{Kind: trace.KindFail, TimeUs: tUs, Seq: o.Req.ID, Inst: inst, Note: reason})
	if o.Sess != nil {
		o.Sess.Abort(serving.ErrFailed)
	}
}
