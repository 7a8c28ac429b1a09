package cluster

// The cluster event core. Five sources hold pending simulated work, each
// owning the due time of its own head: the fault timeline, the KV
// transfer wire, the crash re-dispatch queue, batch arrivals not yet
// dispatched, and every live instance's next scheduler step. next picks
// the earliest head and fire runs it; Run, Step, NextTime and
// DrainContext only drive that pair, so event order is defined here and
// nowhere else.

import (
	"fmt"

	"diffkv/internal/serving"
)

// eventClass names an event source. Declaration order is the tie-break
// at equal timestamps.
type eventClass int

const (
	evNone eventClass = iota // no source has a pending event: the cluster is idle
	// a crash at an arrival's instant is visible to its routing
	evFault
	// an adoption at an arrival's instant is visible to its routing too
	evTransfer
	evRedispatch
	evArrival
	// instance steps come last, the lowest instance index first among them
	evStep
)

// event is the head of one source: what fires next and when.
type event struct {
	class eventClass
	atUs  float64
	inst  int // stepping instance, 0-based (evStep only)
}

// next returns the earliest pending event, evNone when every source is
// empty. Sources are offered in class order and a later offer must be
// strictly earlier to win, which is the whole tie-break: fault <
// transfer < redispatch < arrival < step, then lowest instance index.
func (c *Cluster) next() event {
	var best event
	offer := func(class eventClass, atUs float64, inst int) {
		if best.class == evNone || atUs < best.atUs {
			best = event{class: class, atUs: atUs, inst: inst}
		}
	}
	if at, ok := c.faultDue(); ok {
		offer(evFault, at, 0)
	}
	if c.dg != nil {
		if at, ok := c.dg.xq.NextDue(); ok {
			offer(evTransfer, at, 0)
		}
	}
	if len(c.redispatchQ) > 0 {
		offer(evRedispatch, c.redispatchQ[0].dueUs, 0)
	}
	if len(c.pending) > 0 {
		offer(evArrival, c.pending[0].ArrivalUs, 0)
	}
	for i, e := range c.engines {
		if c.down(i) {
			continue // a down instance does not execute until its restart
		}
		if t, ok := e.NextTime(); ok {
			offer(evStep, float64(t), i)
		}
	}
	return best
}

// fire executes ev, the event next returned. Only an instance step
// completes requests: its completions pass through the disaggregation
// coordinator (settle), the metrics accumulator and the telemetry feed,
// and are returned; every other class returns none.
func (c *Cluster) fire(ev event) ([]serving.Completion, error) {
	switch ev.class {
	case evFault:
		return nil, c.processFault()
	case evTransfer:
		return nil, c.processTransfer()
	case evRedispatch:
		return nil, c.processRedispatch()
	case evArrival:
		r := c.pending[0]
		c.pending = c.pending[1:]
		c.dispatch(r)
	case evStep:
		c.steps++
		comps, err := c.engines[ev.inst].Step()
		if err != nil {
			return nil, fmt.Errorf("cluster: instance %d: %w", ev.inst, err)
		}
		for i := range comps {
			comps[i].Inst = ev.inst + 1
		}
		comps = c.settle(ev.inst, comps)
		for _, cp := range comps {
			c.acc.complete(ev.inst, cp)
		}
		// fed inside the event loop, so a seeded batch run's sampling is
		// deterministic; the guard spares a run without telemetry the
		// per-step Clock scan
		if tc := c.cfg.Telemetry; tc != nil {
			serving.FeedTelemetry(tc, c, comps, float64(c.Clock()))
		}
		return comps, nil
	}
	return nil, nil
}
