// Package trace provides structured event tracing for the serving engine:
// admissions, preemptions, completions and per-step timings are emitted as
// typed events into a bounded collector, which can summarize them or write
// a Perfetto trace-event file for offline analysis. This is the observability surface an
// operator uses to understand scheduler behaviour (queueing onset,
// preemption storms, batch dynamics) without instrumenting the engine.
package trace

import (
	"slices"
	"sync"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the serving engine and the cluster router.
const (
	KindAdmit      Kind = "admit"
	KindPreempt    Kind = "preempt"
	KindComplete   Kind = "complete"
	KindPromptStep Kind = "prompt_step"
	KindGenStep    Kind = "gen_step"
	// KindDispatch is a router decision assigning a request to an
	// instance; KindReject is a request shed by admission control.
	KindDispatch Kind = "dispatch"
	KindReject   Kind = "reject"
	// KindSwapOut / KindSwapIn mark a sequence moving to / returning from
	// the host offload tier (swap-instead-of-recompute preemption);
	// KindHostPrefixHit marks an admission served from a prefix-cache
	// entry that had spilled to the host tier.
	KindSwapOut       Kind = "swap_out"
	KindSwapIn        Kind = "swap_in"
	KindHostPrefixHit Kind = "host_prefix_hit"
	// KindCancel marks a session cancelled mid-flight: its KV pages and
	// any host-tier state were freed without completing the request.
	KindCancel Kind = "cancel"
	// KindOpen marks a request entering the pending queue (Engine.Submit
	// / Engine.Open) — the accept point of serving, before admission
	// (KindAdmit) ever runs. The gap between open and admit is queueing
	// delay.
	KindOpen Kind = "open"
	// KindFirstToken marks the prompt phase finishing (the TTFT point):
	// the request transitions from prefill to decode.
	KindFirstToken Kind = "first_token"
	// Fault-injection lifecycle (internal/faults). KindHealth marks an
	// instance health transition (Note carries the new state:
	// healthy/degraded/down; Seq is 0 — it is an instance event, not a
	// request event). KindRetry marks a request orphaned by an instance
	// crash and queued for re-dispatch (emitted against the instance it
	// was lost from). KindRecover marks a host-tier-swapped sequence
	// surviving its instance's crash and resuming after restart (Bytes
	// is the preserved host-tier footprint). KindFail is terminal: the
	// request exhausted its re-dispatch budget (Note carries the
	// reason).
	KindHealth  Kind = "health"
	KindRetry   Kind = "retry"
	KindRecover Kind = "recover"
	KindFail    Kind = "fail"
	// KindKVShip marks a disaggregated prefill→decode handoff: the
	// finished prefill's compressed KV pages leaving the prefill
	// instance for the chosen decode instance over the NIC. It is
	// emitted against the *destination* instance (it opens the decode
	// side's span tree with an xfer:inst span); Bytes is the packed
	// payload crossing the wire, DurUs the modeled NIC.Transfer time, and
	// Note names the source and pool link ("from=2 link=prefill>decode").
	KindKVShip Kind = "kv_ship"
	// KindAlert is a telemetry signal (internal/telemetry): a saturation
	// scale-up/down advisory or an SLO burn-rate alert. Seq is 0 (it is a
	// fleet event, not a request event); Inst is the 1-based instance for
	// per-instance advisories, 0 for cluster-wide signals; Note carries
	// the rendered alert ("scale_up headroom=0.082", "slo_burn ttft
	// fast=3.10 slow=2.41"). The autoscaling layer consumes these instead
	// of re-deriving saturation from raw counters.
	KindAlert Kind = "alert"
)

// Event is one traced occurrence.
type Event struct {
	Kind Kind `json:"kind"`
	// TimeUs is the simulated clock at emission (microseconds).
	TimeUs float64 `json:"time_us"`
	// Seq is the request ID for per-request events (0 for step events).
	Seq int `json:"seq,omitempty"`
	// Batch is the running batch size for step events.
	Batch int `json:"batch,omitempty"`
	// DurUs is the step duration for step events (microseconds).
	DurUs float64 `json:"dur_us,omitempty"`
	// Inst is the 1-based serving-instance tag in cluster runs (0 for
	// single-engine runs; see WithInstance).
	Inst int `json:"inst,omitempty"`
	// Bytes is the payload size of transfer-bearing events: swap_out /
	// swap_in PCIe traffic and host_prefix_hit promotions. For those
	// events DurUs carries the modeled transfer time before overlap.
	Bytes int64 `json:"bytes,omitempty"`
	// Note carries a short annotation on fault-lifecycle events: the new
	// health state on KindHealth, the orphaning cause on KindRetry, the
	// terminal reason on KindFail.
	Note string `json:"note,omitempty"`
}

// Tracer receives events. Implementations must be safe for concurrent use
// if shared across goroutines (the serving engine emits from one
// goroutine).
type Tracer interface {
	Emit(Event)
}

// Collector is a bounded in-memory tracer: once capacity is reached the
// oldest events are dropped (ring semantics) and the drop count recorded.
// Live consumers can additionally Subscribe for a best-effort event tap.
type Collector struct {
	mu      sync.Mutex
	events  []Event
	start   int
	dropped int
	cap     int
	subs    []chan Event // live taps in subscription order
}

// NewCollector creates a collector holding at most capacity events
// (default 65536 when capacity <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 65536
	}
	return &Collector{cap: capacity}
}

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.subs {
		select {
		case ch <- e:
		default: // a slow subscriber loses events, never stalls the engine
		}
	}
	if len(c.events) < c.cap {
		c.events = append(c.events, e)
		return
	}
	// overwrite oldest
	c.events[c.start] = e
	c.start = (c.start + 1) % c.cap
	c.dropped++
}

// Subscribe registers a live tap over subsequent emissions: events are
// delivered to the returned channel (buffered to buf, default 256) on a
// best-effort basis — when the subscriber falls behind, events are
// skipped rather than blocking Emit. The cancel function unregisters the
// tap and closes the channel; it must be called exactly once.
func (c *Collector) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 256
	}
	ch := make(chan Event, buf)
	c.mu.Lock()
	c.subs = append(c.subs, ch)
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if i := slices.Index(c.subs, ch); i >= 0 {
			c.subs = slices.Delete(c.subs, i, i+1)
			close(ch)
		}
	}
}

// Events returns the retained events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, len(c.events))
	out = append(out, c.events[c.start:]...)
	out = append(out, c.events[:c.start]...)
	return out
}

// Dropped returns how many events were evicted by the ring.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Retained returns how many events the ring currently holds.
func (c *Collector) Retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Summary aggregates the retained events.
type Summary struct {
	Counts map[Kind]int `json:"counts"`
	// StepTimeUs sums step durations per kind.
	StepTimeUs map[Kind]float64 `json:"step_time_us"`
	// MaxBatch is the largest batch observed in step events.
	MaxBatch int `json:"max_batch"`
	// Preemptions per sequence — swap-outs included, summed over every
	// instance the request ran on (the cluster assigns sequence IDs
	// before routing, so they are unique fleet-wide); requests preempted
	// more than once are scheduler red flags.
	PreemptedSeqs map[int]int `json:"preempted_seqs,omitempty"`
}

// Summarize builds a Summary of the retained events.
//
//diffkv:allow deadcode -- tests count emitted events by kind through it: preemptions, swaps, prefix hits and faults traced equal the engine's own counters
func (c *Collector) Summarize() Summary {
	s := Summary{
		Counts:        map[Kind]int{},
		StepTimeUs:    map[Kind]float64{},
		PreemptedSeqs: map[int]int{},
	}
	for _, e := range c.Events() {
		s.Counts[e.Kind]++
		switch e.Kind {
		case KindPromptStep, KindGenStep:
			s.StepTimeUs[e.Kind] += e.DurUs
			if e.Batch > s.MaxBatch {
				s.MaxBatch = e.Batch
			}
		case KindPreempt, KindSwapOut:
			s.PreemptedSeqs[e.Seq]++
		}
	}
	return s
}

// instanceTracer stamps a fixed instance tag onto every event.
type instanceTracer struct {
	inner Tracer
	inst  int
}

// Emit implements Tracer.
func (t instanceTracer) Emit(e Event) {
	e.Inst = t.inst
	t.inner.Emit(e)
}

// WithInstance wraps a tracer so every emitted event carries the given
// 1-based instance tag — the cluster simulator wraps its shared collector
// once per serving instance so interleaved events stay attributable.
func WithInstance(t Tracer, inst int) Tracer {
	return instanceTracer{inner: t, inst: inst}
}
