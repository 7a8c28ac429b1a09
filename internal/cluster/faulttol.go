package cluster

// Failure recovery: the cluster half of the fault-injection layer. An
// internal/faults Injector expands the scenario's fault plan into a
// deterministic timeline of crash / restart / slowdown events; the
// event loop (events.go) interleaves them with arrivals and instance
// steps in global timestamp order, faults first at equal times. A
// crash marks the instance down, loses its GPU KV state and orphans its
// requests: each is scheduled for re-dispatch after an exponential
// backoff (the cluster's queue of scheduled work, events.go) under a
// per-request retry budget; sequences swapped to the host tier survive a
// crash-with-restart and resume when the instance returns.

import (
	"fmt"

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

// redispatch is one crash orphan scheduled for re-dispatch at dueUs (its
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
	// working counts down instances too: their kept swapped sequences
	// only drain after a restart
	if len(c.pending) == 0 && len(c.dueQ) == 0 && c.working == 0 {
		return 0, false
	}
	return at, true
}

// advanceFaults processes every fault event due at or before tUs. Open
// calls it with the fleet clock, so a session routes against current
// instance health and no fault runs ahead of the events due before it.
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
// tags are 1-based, engine indexes 0-based) and touches its instance.
func (c *Cluster) processFault() error {
	ev := c.inj.Pop()
	i := ev.Inst - 1
	switch ev.Op {
	case faults.OpCrash:
		if err := c.processCrash(ev); err != nil {
			return err
		}
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
	c.touch(i)
	return nil
}

// processCrash takes instance ev.Inst down: its GPU KV state is lost,
// its queued and in-flight requests are scheduled for re-dispatch after
// their backoff (or terminally failed when their retry budget is spent),
// and — when the timeline holds a restart — its host-tier-swapped
// sequences are kept as crash insurance.
func (c *Cluster) processCrash(ev faults.Event) error {
	i := ev.Inst - 1
	keep := c.inj.HasRestart(ev.Inst)
	rep, err := c.engines[i].Crash(ev.AtUs, keep)
	if err != nil {
		return fmt.Errorf("cluster: crash instance %d: %w", i+1, err)
	}
	c.health[i] = Down
	c.crashes++
	c.emit(trace.Event{Kind: trace.KindHealth, TimeUs: ev.AtUs, Inst: i + 1, Note: string(Down)})
	budget := c.inj.RetryBudget()
	for _, o := range rep.Orphans {
		// stamped at o.AsOfUs, where the orphan's phases left off: a crash
		// that lands mid-step orphans at the engine's clock, past ev.AtUs
		c.emit(trace.Event{Kind: trace.KindRetry, TimeUs: o.AsOfUs, Seq: o.Req.ID, Inst: i + 1, Note: "crash"})
		if o.Attempts > budget {
			c.fail(o, o.AsOfUs, i+1, "retry budget exhausted")
			continue
		}
		rd := redispatch{o: o, dueUs: ev.AtUs + c.inj.Backoff(o.Attempts), fromInst: i + 1}
		c.schedule(rd.dueUs, keyRedispatch, func() error { return c.redispatch(rd) })
	}
	return nil
}

// redispatch re-dispatches a crash orphan to the least-loaded live
// instance. When every instance is down the orphan is scheduled again
// after another backoff — each such wait consumes retry budget, so
// requests cannot circulate forever through a dead fleet.
func (c *Cluster) redispatch(rd redispatch) error {
	idx, ok := c.routeRedispatch()
	if !ok {
		rd.waits++
		if rd.o.Attempts+rd.waits > c.inj.RetryBudget() {
			c.fail(rd.o, rd.dueUs, rd.fromInst, "no live instances")
			return nil
		}
		rd.dueUs += c.inj.Backoff(rd.o.Attempts + rd.waits)
		c.schedule(rd.dueUs, keyRedispatch, func() error { return c.redispatch(rd) })
		return nil
	}
	if err := c.engines[idx].Readmit(rd.o, rd.dueUs); err != nil {
		return fmt.Errorf("cluster: redispatch request %d to instance %d: %w", rd.o.Req.ID, idx+1, err)
	}
	c.touch(idx)
	c.redispatchN++
	c.perInstRedisp[idx]++
	c.observe(rd.o.Req, idx, rd.dueUs)
	c.emit(trace.Event{Kind: trace.KindDispatch, TimeUs: rd.dueUs, Seq: rd.o.Req.ID, Inst: idx + 1, Note: "redispatch"})
	return nil
}

// routeRedispatch picks the least-loaded live instance for a crash
// orphan. Unlike first-dispatch routing it ignores MaxQueueDepth — an
// already-admitted request is never shed by saturation, only by its
// retry budget.
func (c *Cluster) routeRedispatch() (int, bool) {
	snaps := c.snapshots(func(Snapshot) bool { return true })
	if len(snaps) == 0 {
		return 0, false
	}
	return pickLeast(snaps), true
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
