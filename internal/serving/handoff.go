package serving

// Disaggregated prefill/decode handoff (engine side). In disaggregated
// serving the cluster splits every request into a prefill sub-request
// (same ID, GenLen 1 — the first output token is produced where the
// prompt ran, so TTFT is honestly attributed to the prefill instance)
// and a decode sub-request that resumes on another instance once the
// prefill's KV pages cross the NIC. The engine's share of that protocol
// is three calls:
//
//   - MarkHandoff(id, genLen): the cluster flags a submitted prefill
//     child so its completion exports the sequence instead of silently
//     dropping its KV with ReleaseSequence. genLen is the parent's
//     generation budget, which the export's decode sub-request restores.
//   - TakeExport(id): after the prefill child completes, the cluster
//     collects the KVExport — the decode sub-request, per-head tier counts,
//     packed byte size and both halves of the request record — to ship to
//     the decode side.
//   - SubmitPrefilled(exp, nowUs): the decode engine accepts the shipped
//     sequence. It rides the ordinary pending queue and admission gate,
//     but admission adopts the exact page shape via AdoptCounts instead of
//     re-running the prompt, and the request's phase accounting continues
//     from the prefill side's breakdown plus the modeled wire time — so
//     the final Completion.Phases telescopes to end-to-end latency across
//     both instances within 1µs.
//
// The same invariants as crash re-dispatch (faulttol.go) apply: arrival
// time is preserved across the handoff, the decode engine's clock is
// only pulled up when idle (the cluster processes events in global time
// order, so a busy engine's next step is already >= the transfer's
// delivery time), and a live session handle rebinds to the decode
// engine so streaming consumers never notice the migration.

import (
	"fmt"

	"diffkv/internal/gpusim"
	"diffkv/internal/kvcache"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// KVExport is one finished prefill's portable sequence state: the request
// record itself — both halves, so the decode instance resumes generation
// bit-identically and cross-instance completions stay honest — plus the
// KV shape that crosses the wire.
type KVExport struct {
	// Req is the decode sub-request: the parent request (same ID and
	// ArrivalUs as its prefill child) resuming after its first token.
	Req workload.Request
	// Bytes is the packed payload crossing the wire: the sequence's
	// resident KV at its quantized size (the page manager's byte
	// accounting, or a baseline's per-token estimate). Compression pays here
	// a second time — K4V2 pages ship several times cheaper than FP16.
	Bytes int64
	// Counts is the per-head tier shape (nil from a store without pages):
	// the decode manager adopts exactly these page demands, so occupancy
	// transfers page-identically.
	Counts []kvcache.HeadDemand
	// XferUs is the modeled NIC.Transfer wire time, stamped by the cluster;
	// adoption charges it to the decode instance's next step as ingest
	// stall.
	XferUs float64

	// progress prices decode-side steps identically to a colocated run;
	// Lifecycle continues the accounting: its open phase is xfer:inst since
	// AsOfUs, the prefill-side completion clock, and its Sess rebinds to
	// the decode engine at SubmitPrefilled.
	progress
	Lifecycle
}

// MarkHandoff flags a submitted request as the prefill child of a
// disaggregated request generating genLen tokens in all: its completion
// exports the sequence (TakeExport) instead of dropping its KV.
func (e *Engine) MarkHandoff(id, genLen int) {
	if st := e.live[id]; st != nil {
		st.handoffGen = genLen
	}
}

// exportSeq captures a completing prefill child into the exports mailbox
// before its pages are released: the KV shape is read off the store, the
// record's halves are copied whole. Called from complete; the cluster
// collects the export via TakeExport.
func (e *Engine) exportSeq(st *seqState) error {
	exp := &KVExport{Req: st.req, Bytes: e.kv.kvBytes(st), progress: st.progress, Lifecycle: st.Lifecycle}
	exp.Req.GenLen, exp.handoffGen = st.handoffGen, 0
	var err error
	if exp.Counts, err = e.kv.shape(st); err != nil {
		return fmt.Errorf("serving: handoff export %d: %w", st.req.ID, err)
	}
	e.exports[st.req.ID] = exp
	return nil
}

// TakeExport removes and returns the KVExport captured when the given
// request completed, false when it was not a handoff-marked prefill child.
func (e *Engine) TakeExport(id int) (*KVExport, bool) {
	exp, ok := e.exports[id]
	delete(e.exports, id)
	return exp, ok
}

// SubmitPrefilled queues a shipped prefilled sequence for adoption at
// nowUs (the transfer's delivery time). The request keeps its original
// ArrivalUs — end-to-end latency spans both instances — while its phase
// accounting resumes from the prefill side's breakdown with the wire
// time folded into the xfer:inst bucket. A session cancelled while its KV
// was on the wire enters like any other and is reaped before admission,
// so it is counted once and adopts no pages.
func (e *Engine) SubmitPrefilled(exp *KVExport, nowUs float64) error {
	if exp == nil {
		return fmt.Errorf("serving: SubmitPrefilled: nil export")
	}
	if e.live[exp.Req.ID] != nil {
		return fmt.Errorf("serving: SubmitPrefilled %d: duplicate adoption", exp.Req.ID)
	}
	e.catchUp(nowUs)
	st := &seqState{req: exp.Req, Lifecycle: exp.Lifecycle, adopt: exp}
	st.phaseTo(trace.PhaseQueue, nowUs) // wire time ends, decode-side queueing begins
	e.enter(st)
	e.emit(trace.Event{Kind: trace.KindOpen, TimeUs: nowUs, Seq: exp.Req.ID})
	return nil
}

// admitAdopted admits a shipped prefilled sequence: instead of
// registering fresh tiers and re-running the prompt, the record takes
// over the exported progress, the manager adopts the exported page shape
// and generation resumes where the prefill side stopped. Returns false
// (no error) when pages are not yet available — the sequence stays queued
// and retries after a completion, exactly like a blocked swap-in.
func (e *Engine) admitAdopted(st *seqState) (bool, error) {
	exp := st.adopt
	st.progress = exp.progress
	st.adoptedGen = st.generated
	st.req.GenLen = min(st.req.GenLen, e.cfg.MaxGenLen)
	if len(e.running) > 0 && !e.fitsTokens(st.projected()) {
		return false, nil
	}
	if err := e.kv.adopt(st, exp.Counts); err != nil {
		if len(e.running) > 0 {
			return false, nil // page pressure: retry after a completion
		}
		return false, fmt.Errorf("serving: admitAdopted %d: %w", st.req.ID, err)
	}
	// the landed transfer's device DMA contends with the next step's
	// compute up to the NIC overlap fraction (ingest stall)
	e.pendingNIC += gpusim.Micros(exp.XferUs)
	shift(&e.pending)
	st.adopt = nil
	e.run(st, trace.PhaseDecode)
	e.emit(trace.Event{Kind: trace.KindAdmit, TimeUs: float64(e.clock), Seq: st.req.ID, Note: "adopt"})
	return true, nil
}
