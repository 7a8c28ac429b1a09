package serving

// The request record. One seqState describes an in-flight request from
// the moment it enters an engine until it leaves, and everything the
// engine knows about the request lives on it — no ID-keyed side tables.
//
// Three entries create a record and hand it to enter: Submit (a fresh
// request), Readmit (a crash Orphan) and SubmitPrefilled (a shipped
// KVExport). Five exits take it off the engine, all through retire:
// completion, export (a handoff-marked prefill child completing),
// orphaning (Crash), a cancelled context (ReapSessions) and an explicit
// Session.Cancel. Preemption is not an exit: it only moves the record
// between the engine's queues.
//
// The record is two halves. A recompute preemption zeroes progress and
// keeps Lifecycle; an Orphan carries Lifecycle alone (the KV died with
// the instance, so there is no progress to carry); a KVExport carries
// both, because the decode side resumes the sequence where it stopped.

import (
	"slices"
	"sort"

	"diffkv/internal/gpusim"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// residency names the engine queue that holds a record.
type residency uint8

const (
	atQueue   residency = iota // e.pending: awaiting (re-)admission
	atRunning                  // e.running: holds GPU KV
	atSwapped                  // e.swappedQ: KV pinned in the host tier
)

// progress is the half of a request record that a recompute preemption
// resets: how far the sequence has got and the KV shape it got there
// with.
type progress struct {
	promptDone bool
	generated  int
	frac       []float64                // per-head tier fractions (pageStore): see fractions
	thr        []kvcache.TierThresholds // the fractions as integer tests, made at the first draw (pageStore)
	winFill    int
	cached     int     // prompt tokens served from the prefix cache
	firstTokUs float64 // clock when the prompt phase completed
	brownout   bool    // admitted at the all-low tier (graceful degradation)
	adoptedGen int     // tokens generated elsewhere before a disagg adoption
}

// fractions returns the per-head tier fractions, high then low: one
// slice holds both halves, so the record carries a single slice header
// for them. Every request record carries these fields, whatever its
// store: with hiF and loF as two fields beside thr, cluster_fleet's
// records (traits mode, no fractions at all) took 6.5 MB more peak RSS,
// 92.4 against 85.9 MB (8 of 8 alternating pairs, 2-vCPU amd64 host).
func (p *progress) fractions() (hiF, loF []float64) {
	n := len(p.frac) / 2
	return p.frac[:n:n], p.frac[n:]
}

// allLow shifts every head's whole tier budget into the low tier — the
// state of a brownout admission and of a compress-swap victim after its
// re-quantize pass. The thresholds made from the old fractions go; the
// next draw makes them again.
func (p *progress) allLow() {
	hiF, loF := p.fractions()
	for h := range hiF {
		loF[h] = mathx.Clamp(hiF[h]+loF[h], 0, 0.9)
		hiF[h] = 0
	}
	p.thr = nil
}

// Lifecycle is the half of a request record that survives preemption,
// crash re-dispatch and prefill/decode handoff, so latency accounting
// stays honest however many engines the request crosses.
type Lifecycle struct {
	// Phases holds the closed lifecycle buckets up to AsOfUs, the clock at
	// which the open phase began: every scheduler transition folds the
	// elapsed interval into the bucket of the phase being left, so the
	// buckets telescope to end-to-end latency exactly. On an Orphan AsOfUs
	// is the crash time, on a KVExport the prefill-side completion time.
	Phases trace.PhaseBreakdown
	AsOfUs float64
	// Preempts counts preemptions (recompute and swap alike); RetryUs
	// records the clock of each recovery re-admission, swap-in and crash
	// re-dispatch; Attempts counts the instances that dispatched the
	// request (>= 1).
	Preempts int
	RetryUs  []float64
	Attempts int
	// Sess is the live session handle (nil in batch runs); it rebinds to
	// whichever engine the record enters next.
	Sess *Session

	cur trace.Phase // the open phase
	// handoffGen > 0 marks a prefill child: its completion exports the KV
	// shape for a decode sub-request generating up to handoffGen tokens
	handoffGen int
}

// phaseTo folds the interval since AsOfUs into the open phase's bucket
// and opens ph at nowUs.
func (l *Lifecycle) phaseTo(ph trace.Phase, nowUs float64) {
	l.Phases.Add(l.cur, nowUs-l.AsOfUs)
	l.cur, l.AsOfUs = ph, nowUs
}

// seqState is the request record: the request, its two halves, and the
// engine-local residency that neither hand-off type carries.
type seqState struct {
	req workload.Request
	progress
	Lifecycle
	at        residency
	swapBytes int64     // D2H bytes of the latest swap-out (trace payload)
	adopt     *KVExport // shipped KV awaiting decode-side admission
	// stamp orders e.running (batchView.join); gen is 1 + the record's ID
	// in the generation heaps, 0 outside the generation phase
	stamp uint64
	gen   int
}

// tokens is the sequence's cached KV length.
func (st *seqState) tokens() int { return st.req.PromptLen + st.generated }

// projected is the sequence's expected KV demand: what it holds plus half
// of what it may still generate.
func (st *seqState) projected() float64 {
	return float64(st.tokens() + (st.req.GenLen-st.generated)/2)
}

// enter is the one way a record joins an engine: sorted into the pending
// queue by arrival (so Step admits in time order), indexed by request ID,
// its session — if any — bound here.
func (e *Engine) enter(st *seqState) {
	i := sort.Search(len(e.pending), func(i int) bool {
		return e.pending[i].req.ArrivalUs > st.req.ArrivalUs
	})
	e.pending = slices.Insert(e.pending, i, st)
	st.at = atQueue
	e.live[st.req.ID] = st
	if st.Sess != nil {
		st.Sess.eng = e
		e.sessN++
	}
}

// shift pops the head of a queue, clearing its slot: the backing array
// outlives the pop, and a stale pointer there would pin the record (and
// its per-head tier fractions) long after it has left the engine.
func shift(q *[]*seqState) {
	(*q)[0] = nil
	*q = (*q)[1:]
}

// retire is the one way a record leaves an engine, reached from
// completion, export, orphaning and cancellation alike: whatever KV its
// residency holds is released, the ID index forgets it and its session is
// detached (a detached session survives on the Orphan / KVExport and
// rebinds at the next enter). The caller has already taken the record
// off its queue.
func (e *Engine) retire(st *seqState) error {
	delete(e.live, st.req.ID)
	if st.Sess != nil {
		st.Sess.eng = nil
		e.sessN--
	}
	switch st.at {
	case atSwapped:
		e.tiered.Drop(st.req.ID)
	case atRunning:
		// freed pages: admissions held back by a preemption may resume
		e.admitBlocked = false
		return e.kv.release(st)
	}
	return nil
}

// catchUp pulls an idle engine's clock up to nowUs before a record
// arrives from another instance. A busy engine's next step is already >=
// nowUs (the cluster processes events in global time order), so only the
// idle case needs the clamp.
func (e *Engine) catchUp(nowUs float64) {
	if len(e.running) == 0 && len(e.swappedQ) == 0 && float64(e.clock) < nowUs {
		e.clock = gpusim.Micros(nowUs)
	}
}

// LiveRecords counts the request records this engine still holds: those
// queued, running or swapped, plus exports no one has collected. Zero
// after a drained run.
//
//diffkv:allow deadcode -- tests see record conservation through it: a drained engine or fleet holds no request record
func (e *Engine) LiveRecords() int { return len(e.live) + len(e.exports) }
