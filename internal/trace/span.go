package trace

// Request-lifecycle spans: the flat event stream regrouped into one span
// tree per request, so the full latency budget of any request — where
// did its 800ms go? — sums from its parts. The root span covers open →
// complete/cancel/fail; its children are the lifecycle phases (queue,
// prefill, decode, the preemption phases stall / swapped, and xfer:inst),
// with transfer sub-spans carrying the byte counts of swap and KV-ship
// traffic and instantaneous markers for dispatch, retry, recover and
// host-prefix hits. A request that crosses instances — a crash
// re-dispatch, a prefill/decode handoff — stays one tree. The builder is
// a pure function of the event stream, so it works identically over the
// live collector or a re-read Perfetto export.

import "sort"

// Phase classifies where a request's lifecycle time is spent.
type Phase string

// Lifecycle phases. Exactly one is active at any instant of a request's
// life, so the per-phase durations sum to its end-to-end latency.
const (
	// PhaseQueue is arrival (open) to admission.
	PhaseQueue Phase = "queue"
	// PhasePrefill is admission to the first output token (the prompt
	// pass, re-entered after a recompute preemption).
	PhasePrefill Phase = "prefill"
	// PhaseDecode is token generation.
	PhaseDecode Phase = "decode"
	// PhaseStall is a recompute preemption: the request was evicted and
	// waits in the queue to restart from scratch.
	PhaseStall Phase = "stall"
	// PhaseSwapped is a swap preemption: the request's KV lives in host
	// memory and it waits for swap-in.
	PhaseSwapped Phase = "swapped"
	// PhaseXferInst is a disaggregated handoff: the finished prefill's
	// KV pages are crossing the NIC to the chosen decode instance and
	// the request can make no progress until they land.
	PhaseXferInst Phase = "xfer:inst"
)

// PhaseBreakdown attributes a request's end-to-end latency across
// lifecycle phases (microseconds). The buckets are exhaustive and
// non-overlapping: they sum to completion minus arrival.
type PhaseBreakdown struct {
	QueueUs   float64 `json:"queue_us"`
	PrefillUs float64 `json:"prefill_us"`
	DecodeUs  float64 `json:"decode_us"`
	StallUs   float64 `json:"stall_us,omitempty"`
	SwappedUs float64 `json:"swapped_us,omitempty"`
	// XferUs is cross-instance KV shipment time (disaggregated serving's
	// prefill→decode handoff; zero elsewhere).
	XferUs float64 `json:"xfer_us,omitempty"`
}

// Add accumulates durUs into the bucket for ph.
func (p *PhaseBreakdown) Add(ph Phase, durUs float64) {
	switch ph {
	case PhaseQueue:
		p.QueueUs += durUs
	case PhasePrefill:
		p.PrefillUs += durUs
	case PhaseDecode:
		p.DecodeUs += durUs
	case PhaseStall:
		p.StallUs += durUs
	case PhaseSwapped:
		p.SwappedUs += durUs
	case PhaseXferInst:
		p.XferUs += durUs
	}
}

// TotalUs sums the buckets — the end-to-end latency they attribute.
//
//diffkv:allow deadcode -- tests see phase telescoping through it: a request's phase buckets sum to its end-to-end latency, across preemption, crash and handoff
func (p PhaseBreakdown) TotalUs() float64 {
	return p.QueueUs + p.PrefillUs + p.DecodeUs + p.StallUs + p.SwappedUs + p.XferUs
}

// Span is one node of a request's span tree: a named interval of
// simulated time with optional transfer payload and children. Marker
// spans (dispatch, host_prefix_hit) have StartUs == EndUs.
type Span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Bytes is the transfer payload of xfer spans (0 otherwise).
	Bytes    int64   `json:"bytes,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Names of non-phase spans in a request tree.
const (
	SpanXferD2H       = "xfer:d2h"
	SpanXferH2D       = "xfer:h2d"
	SpanXferInst      = "xfer:inst"
	SpanDispatch      = "dispatch"
	SpanHostPrefixHit = "host_prefix_hit"
	SpanRetry         = "retry"
	SpanRecover       = "recover"
)

// RequestSpans is the reconstructed lifecycle of one request: its root
// span (phase spans as children, in time order) plus the phase
// breakdown derived from them.
type RequestSpans struct {
	Seq int `json:"seq"`
	// Inst is the instance of the request's latest event: where it
	// completed, or where it was last seen (0 outside a cluster).
	Inst int `json:"inst,omitempty"`
	// StartUs is arrival (the open event, or the earliest retained event
	// when the ring dropped the open); EndUs is completion, cancellation,
	// or the last retained event for still-running requests.
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Completed / Cancelled / Failed mark how the request ended; all
	// false means it was still in flight at the end of the event stream,
	// in phase Phase.
	// Failed is the terminal fault-injection outcome: the request
	// exhausted its re-dispatch budget after instance crashes.
	Completed bool `json:"completed,omitempty"`
	Cancelled bool `json:"cancelled,omitempty"`
	Failed    bool `json:"failed,omitempty"`
	// FailReason carries the Note of the fail event (Failed only).
	FailReason string `json:"fail_reason,omitempty"`
	// Phase is the phase an in-flight request was in when the stream
	// ended; empty once it ended.
	Phase Phase `json:"phase,omitempty"`
	// Preemptions counts preempt + swap_out events.
	Preemptions int `json:"preemptions,omitempty"`
	// Retries counts crash-orphaning retry events: each is one lost
	// residency on an instance that died with the request on board.
	Retries int `json:"retries,omitempty"`
	// Phases is the per-phase latency attribution summed from the phase
	// spans; for completed requests it sums to EndUs-StartUs.
	Phases PhaseBreakdown `json:"phases"`
	Root   *Span          `json:"root"`
}

// E2EUs returns the request's end-to-end latency.
func (r *RequestSpans) E2EUs() float64 { return r.EndUs - r.StartUs }

// TTFTUs returns arrival to the end of the request's last prefill span —
// the engine's rule, since a recompute preemption or a crash re-dispatch
// runs the prompt again. ok is false when the tree holds no prefill.
func (r *RequestSpans) TTFTUs() (us float64, ok bool) {
	for i := len(r.Root.Children) - 1; i >= 0; i-- {
		if sp := r.Root.Children[i]; sp.Name == string(PhasePrefill) {
			return sp.EndUs - r.StartUs, true
		}
	}
	return 0, false
}

// spanBuilder is the per-request state machine of BuildRequestSpans.
type spanBuilder struct {
	rt      *RequestSpans
	cur     Phase
	sinceUs float64
	started bool
	lastUs  float64
}

// begin lazily opens the tree at the first event (the ring may have
// dropped the true open; the tree then starts at what survived).
func (b *spanBuilder) begin(t float64, ph Phase) {
	if b.started {
		return
	}
	b.started = true
	b.rt.StartUs = t
	b.rt.Root = &Span{Name: "request", StartUs: t}
	b.cur, b.sinceUs = ph, t
}

// to closes the current phase span at t and enters ph.
func (b *spanBuilder) to(t float64, ph Phase) {
	b.closePhase(t)
	b.cur, b.sinceUs = ph, t
}

// closePhase appends the current phase as a child span ending at t.
func (b *spanBuilder) closePhase(t float64) {
	if !b.started || t < b.sinceUs {
		return
	}
	b.rt.Root.Children = append(b.rt.Root.Children,
		&Span{Name: string(b.cur), StartUs: b.sinceUs, EndUs: t})
	b.rt.Phases.Add(b.cur, t-b.sinceUs)
}

// marker appends an instantaneous child span.
func (b *spanBuilder) marker(name string, t float64, bytes int64) {
	b.rt.Root.Children = append(b.rt.Root.Children,
		&Span{Name: name, StartUs: t, EndUs: t, Bytes: bytes})
}

// xfer appends a transfer child span of durUs starting at t.
func (b *spanBuilder) xfer(name string, t, durUs float64, bytes int64) {
	b.rt.Root.Children = append(b.rt.Root.Children,
		&Span{Name: name, StartUs: t, EndUs: t + durUs, Bytes: bytes})
}

// feed advances the state machine by one event.
func (b *spanBuilder) feed(e Event) {
	t := e.TimeUs
	b.lastUs = t
	b.rt.Inst = e.Inst
	switch e.Kind {
	case KindOpen, KindDispatch:
		if b.started && b.cur == PhaseXferInst {
			// disaggregated decode side: the shipped KV landed and the
			// adopted request enters this instance's pending queue
			b.to(t, PhaseQueue)
		} else {
			b.begin(t, PhaseQueue)
		}
		if e.Kind == KindDispatch {
			b.marker(SpanDispatch, t, 0)
		}
	case KindHostPrefixHit:
		b.begin(t, PhaseQueue)
		b.marker(SpanHostPrefixHit, t, e.Bytes)
	case KindAdmit:
		ph := PhasePrefill
		if e.Note == "adopt" {
			// adopted prefilled sequence: its prompt pass already ran on
			// the prefill instance, so admission here resumes decode
			ph = PhaseDecode
		}
		if !b.started {
			b.begin(t, ph)
			return
		}
		b.to(t, ph)
	case KindFirstToken:
		b.begin(t, PhasePrefill)
		b.to(t, PhaseDecode)
	case KindPreempt:
		b.begin(t, PhaseDecode)
		b.rt.Preemptions++
		b.to(t, PhaseStall)
	case KindSwapOut:
		b.begin(t, PhaseDecode)
		b.rt.Preemptions++
		b.to(t, PhaseSwapped)
		b.xfer(SpanXferD2H, t, e.DurUs, e.Bytes)
	case KindSwapIn:
		b.begin(t, PhaseSwapped)
		b.to(t, PhaseDecode)
		b.xfer(SpanXferH2D, t, e.DurUs, e.Bytes)
	case KindKVShip:
		// disaggregated handoff, emitted against the destination
		// instance: the prefill child's completion was not the request's,
		// so the tree reopens in the xfer:inst phase, with the wire
		// transfer recorded as a byte-carrying child span
		if b.rt.Completed {
			b.rt.Completed = false
			b.cur, b.sinceUs = PhaseXferInst, t
		}
		b.begin(t, PhaseXferInst)
		b.xfer(SpanXferInst, t, e.DurUs, e.Bytes)
	case KindComplete:
		b.begin(t, PhaseDecode)
		b.finish(t)
		b.rt.Completed = true
	case KindCancel:
		b.begin(t, PhaseQueue)
		b.finish(t)
		b.rt.Cancelled = true
	case KindRetry:
		// the request's residency on this instance ended with a crash;
		// it stays in queue state until a re-dispatch readmits it on
		// another instance, in this same tree
		b.begin(t, PhaseQueue)
		b.rt.Retries++
		b.marker(SpanRetry, t, 0)
		b.to(t, PhaseQueue)
	case KindRecover:
		// host-tier state survived the instance crash: the swapped
		// sequence resumes after restart instead of recomputing
		b.begin(t, PhaseSwapped)
		b.marker(SpanRecover, t, e.Bytes)
	case KindFail:
		b.begin(t, PhaseQueue)
		b.finish(t)
		b.rt.Failed = true
		b.rt.FailReason = e.Note
	}
}

// finish closes the tree at t.
func (b *spanBuilder) finish(t float64) {
	b.closePhase(t)
	b.rt.EndUs = t
	b.rt.Root.EndUs = t
}

// BuildRequestSpans regroups an event stream into one span tree per
// request, keyed on its sequence ID, which is unique fleet-wide: every
// instance a request crossed contributes to the one tree, and retry,
// dispatch and kv_ship are spans inside it. Step events (Seq 0) are
// skipped. Requests still in flight at the end of the stream get an
// open-ended tree truncated at their last event, with Phase set. The
// result is ordered by start time (ties by sequence).
func BuildRequestSpans(events []Event) []*RequestSpans {
	builders := make(map[int]*spanBuilder)
	var order []*spanBuilder
	for _, e := range events {
		if e.Seq == 0 {
			continue
		}
		b, ok := builders[e.Seq]
		if !ok {
			b = &spanBuilder{rt: &RequestSpans{Seq: e.Seq}}
			builders[e.Seq] = b
			order = append(order, b)
		}
		b.feed(e)
	}
	out := make([]*RequestSpans, 0, len(order))
	for _, b := range order {
		if !b.started {
			continue
		}
		if !b.rt.Completed && !b.rt.Cancelled && !b.rt.Failed {
			b.rt.Phase = b.cur
			b.finish(b.lastUs)
		}
		out = append(out, b.rt)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StartUs != b.StartUs {
			return a.StartUs < b.StartUs
		}
		return a.Seq < b.Seq
	})
	return out
}

// FindRequestSpans returns the span tree of the request with the given
// sequence ID (nil when absent). Sequence IDs are unique fleet-wide on
// every online path (sessions, cluster dispatch), so no instance is
// needed, and the tree covers every instance the request crossed.
func FindRequestSpans(trees []*RequestSpans, seq int) *RequestSpans {
	for _, rt := range trees {
		if rt.Seq == seq {
			return rt
		}
	}
	return nil
}
