package serving

// Fault tolerance: the engine-side half of the failure-recovery layer.
// The cluster (driven by an internal/faults Injector) calls Crash when
// an instance dies — GPU KV pages are lost, queued and in-flight
// requests become orphans for re-dispatch, host-tier-swapped sequences
// optionally survive as "crash insurance" — Restart when it comes back,
// and Readmit to land an orphan on a surviving instance with its
// arrival time, phase accounting and retry history intact, so latency
// metrics stay honest under churn.

import (
	"fmt"
	"sort"

	"diffkv/internal/gpusim"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// Orphan is one request stranded by an instance crash: the original
// request (ArrivalUs preserved — TTFT/E2E include the lost time) and the
// lifecycle half of its record, closed at the crash (AsOfUs), which is
// everything a surviving instance needs to resume its accounting. The
// progress half died with the instance's KV.
type Orphan struct {
	Req workload.Request
	Lifecycle
}

// CrashReport summarizes one instance crash for the recovery layer.
type CrashReport struct {
	// Orphans are the requests stranded by the crash (pending +
	// running, plus swapped when the host tier does not survive), in
	// deterministic request-ID order.
	Orphans []Orphan
	// LostKVBytes is the GPU-resident KV footprint destroyed by the
	// crash (running sequences; swapped sequences live in host memory
	// and lose nothing).
	LostKVBytes int64
}

// xferFault consults the configured transfer-fault hook.
func (e *Engine) xferFault() bool {
	return e.cfg.XferFault != nil && e.cfg.XferFault()
}

// Crash simulates the instance's GPU process dying at nowUs: every
// GPU-resident KV page is lost, queued and running requests are
// orphaned for the cluster to re-dispatch, and the GPU prefix cache is
// cleared (entries already spilled to the host tier survive there).
// When keepSwapped is true — a restart is coming — sequences swapped to
// host memory stay put and resume after Restart, the measurable "host
// tier as crash insurance"; otherwise their host bytes are dropped and
// they are orphaned too, their progress lost. The engine object itself
// stays alive for Restart; the cluster must not step it while down.
func (e *Engine) Crash(nowUs float64, keepSwapped bool) (CrashReport, error) {
	e.clock = max(e.clock, gpusim.Micros(nowUs))
	e.slowFactor = 1 // a crash ends any degraded window
	var rep CrashReport
	stranded := [][]*seqState{e.running, e.pending}
	e.running, e.pending, e.residentTok = nil, nil, 0
	e.batch = batchView{}
	if !keepSwapped {
		stranded = append(stranded, e.swappedQ)
		e.swappedQ, e.swappedTok = nil, 0
	}
	for _, q := range stranded {
		for _, st := range q {
			if st.at == atRunning {
				rep.LostKVBytes += e.kv.kvBytes(st) // counted before the pages go
			}
			if err := e.retire(st); err != nil {
				return rep, fmt.Errorf("serving: crash release seq %d: %w", st.req.ID, err)
			}
			// the crash-to-readmission gap counts as queueing wherever the
			// orphan lands
			st.phaseTo(trace.PhaseQueue, float64(e.clock))
			rep.Orphans = append(rep.Orphans, Orphan{Req: st.req, Lifecycle: st.Lifecycle})
		}
	}
	// GPU prefix-cache entries vanish with the GPU memory; host-tier
	// spills made at earlier evictions are the only copies that survive
	clear(e.prefix)
	e.admitBlocked = false
	e.pendingXfer = 0
	e.lostKVBytes += rep.LostKVBytes
	// deterministic orphan order regardless of which structure held them
	sort.Slice(rep.Orphans, func(i, j int) bool {
		return rep.Orphans[i].Req.ID < rep.Orphans[j].Req.ID
	})
	return rep, nil
}

// Restart brings a crashed instance back at nowUs. Swapped sequences
// kept through the crash drain back in via the normal admission path —
// their next step swaps them in from host memory instead of recomputing.
func (e *Engine) Restart(nowUs float64) {
	e.clock = max(e.clock, gpusim.Micros(nowUs))
	e.slowFactor = 1
}

// SetSlowFactor enters (factor > 1) or leaves (factor <= 1) a degraded
// window: every subsequent step's time stretches by the factor.
func (e *Engine) SetSlowFactor(factor float64) {
	if factor < 1 {
		factor = 1
	}
	e.slowFactor = factor
}

// SwappedIDs returns the request IDs currently swapped to the host
// tier, in queue order.
func (e *Engine) SwappedIDs() []int {
	ids := make([]int, len(e.swappedQ))
	for i, st := range e.swappedQ {
		ids[i] = st.req.ID
	}
	return ids
}

// BrownoutAdmits counts admissions made at the all-low tier.
func (e *Engine) BrownoutAdmits() int { return e.brownoutN }

// LostKVBytes is the GPU KV footprint this engine's crashes destroyed.
func (e *Engine) LostKVBytes() int64 { return e.lostKVBytes }

// Readmit lands a crash orphan on this engine: the request joins the
// pending queue with its original arrival time (honest latency), its
// lifecycle half carries over whole — the open phase is queueing since
// the crash — its retry record gains the re-dispatch timestamp, and its
// session, when present, is rebound here. nowUs is the cluster time of
// the re-dispatch; an idle engine's clock is pulled up to it so the
// request cannot be admitted before its crash was processed.
func (e *Engine) Readmit(o Orphan, nowUs float64) error {
	if e.live[o.Req.ID] != nil {
		return fmt.Errorf("serving: readmit of request %d: already in flight here", o.Req.ID)
	}
	e.catchUp(nowUs)
	st := &seqState{req: o.Req, Lifecycle: o.Lifecycle}
	st.Attempts++
	st.RetryUs = append(st.RetryUs, nowUs)
	e.enter(st)
	return nil
}
