package cluster

// The cluster event core. Four sources hold pending simulated work, each
// owning the due time of its own head: the fault timeline, the queue of
// scheduled work (KV shipments on the wire and crash orphans waiting out
// their backoff, dueQ), batch arrivals not yet dispatched, and every live
// instance's next scheduler step — the top of the step heap touch keeps
// (touch.go). next picks the earliest head and fire runs it; Run, Step,
// NextTime and DrainContext only drive that pair, so event order is
// defined here and nowhere else.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
)

// eventClass names an event source. Declaration order is the tie-break
// at equal timestamps.
type eventClass int

const (
	evNone eventClass = iota // no source has a pending event: the cluster is idle
	// a crash at an arrival's instant is visible to its routing
	evFault
	// an adoption at an arrival's instant is visible to its routing too
	evDue
	evArrival
	// instance steps come last, the lowest instance index first among them
	evStep
)

// keyRedispatch orders a crash re-dispatch after every KV shipment due
// at the same instant (a shipment's key is its request ID); among
// themselves re-dispatches keep the order they were scheduled in.
const keyRedispatch = math.MaxInt

// dueItem is one piece of scheduled work: fire runs at atUs.
type dueItem struct {
	atUs float64
	key  int
	fire func() error
}

// schedule queues fire to run at atUs. The queue is ordered by (atUs,
// key); items with equal keys keep their insertion order.
func (c *Cluster) schedule(atUs float64, key int, fire func() error) {
	i := sort.Search(len(c.dueQ), func(i int) bool {
		d := c.dueQ[i]
		return d.atUs > atUs || d.atUs == atUs && d.key > key
	})
	c.dueQ = slices.Insert(c.dueQ, i, dueItem{atUs: atUs, key: key, fire: fire})
}

// event is the head of one source: what fires next and when.
type event struct {
	class eventClass
	atUs  float64
	inst  int // stepping instance, 0-based (evStep only)
}

// next returns the earliest pending event, evNone when every source is
// empty. Sources are offered in class order and a later offer must be
// strictly earlier to win, which is the whole tie-break: fault < due <
// arrival < step, then lowest instance index.
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
	if len(c.dueQ) > 0 {
		offer(evDue, c.dueQ[0].atUs, 0)
	}
	if len(c.pending) > 0 {
		offer(evArrival, c.pending[0].ArrivalUs, 0)
	}
	if i, ok := c.stepQ.Top(); ok {
		offer(evStep, c.stepAt[i], i)
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
	case evDue:
		fire := c.dueQ[0].fire
		c.dueQ[0] = dueItem{}
		c.dueQ = c.dueQ[1:]
		return nil, fire()
	case evArrival:
		r := c.pending[0]
		c.pending = c.pending[1:]
		c.dispatch(r)
	case evStep:
		c.steps++
		comps, err := c.engines[ev.inst].Step()
		if err != nil {
			return nil, fmt.Errorf("cluster: instance %d: %w", ev.inst+1, err)
		}
		// before settle, whose decode placement reads this instance too;
		// settle itself only collects exports, which touch does not read
		c.touch(ev.inst)
		for i := range comps {
			comps[i].Inst = ev.inst + 1
		}
		comps = c.settle(ev.inst, comps)
		for _, cp := range comps {
			c.acc.complete(ev.inst, cp)
		}
		// fed inside the event loop, so a seeded run's sampling is
		// deterministic
		if tc := c.cfg.Telemetry; tc != nil {
			c.feedTelemetry(tc, comps)
		}
		return comps, nil
	}
	return nil, nil
}

// feedTelemetry is the one event-loop → telemetry feed: record the
// step's completion latencies and phase breakdowns, then take a cadence
// sample of the fleet when one is due at the cluster clock (only a due
// tick pays for the Stats walk).
func (c *Cluster) feedTelemetry(tc *telemetry.Center, comps []serving.Completion) {
	for _, cp := range comps {
		ttft, tpot, e2e := cp.LatencySec()
		tc.RecordCompletion(cp.Inst, cp.DoneUs, ttft, tpot, e2e, cp.Phases)
	}
	if tc.Due(float64(c.Clock())) {
		tc.Sample(serving.ObservationFromStats(c.Stats()))
	}
}
