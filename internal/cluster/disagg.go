package cluster

// Prefill/decode disaggregation: the cluster half of the handoff
// protocol in serving/handoff.go. With Config.Disagg set the fleet is
// split into a prefill pool, a decode pool and an optional mixed
// remainder (internal/disagg assigns roles by instance index). Every
// dispatched request is split into a prefill sub-request (same ID,
// GenLen 1 — TTFT lands on the prefill instance) and a decode
// sub-request that resumes elsewhere once the finished prefill's
// compressed KV pages cross the NIC:
//
//	dispatch ── prefill pool ── completion intercepted (settle)
//	    └─ TakeExport ─ pickDecode ─ NICTransfer ─ transfer queue
//	        └─ due: SubmitPrefilled on the decode instance ─ final
//	           completion passes through to metrics/telemetry
//
// Transfer deliveries are cluster events interleaved with faults,
// re-dispatches, arrivals and steps in global timestamp order, so a
// disaggregated run is as deterministic as a colocated one. The
// intercepted prefill completion never reaches the accumulator: a
// request is dispatched once and completed once (by its decode child,
// which carries the composed phase breakdown), keeping Stuck() == 0.

import (
	"fmt"

	"diffkv/internal/disagg"
	"diffkv/internal/serving"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// DisaggMetrics summarizes a disaggregated run's cross-instance KV
// traffic (nil in Metrics without disaggregation).
type DisaggMetrics struct {
	PrefillInstances int
	DecodeInstances  int
	// Transfers counts prefill→decode shipments; KVBytesShipped their
	// compressed payload bytes on the wire. Compression pays a second
	// time here: K4V2 pages ship several times cheaper than FP16.
	Transfers      int
	KVBytesShipped int64
	// XferSeconds is the total modeled wire time across shipments.
	XferSeconds float64
	// Links is the per-(from,to) instance-pair traffic breakdown.
	Links []disagg.LinkBytes
}

// shipment is one in-wire prefill→decode handoff: the decode
// sub-request (the parent resuming after its first token) plus the
// exported sequence state it adopts on arrival.
type shipment struct {
	req workload.Request
	exp *serving.KVExport
}

// disaggState is the cluster's coordinator state (nil without
// Config.Disagg).
type disaggState struct {
	cfg   disagg.Config
	roles []disagg.Role
	// await maps request ID → parent request while its prefill child is
	// in flight; inflight maps request ID → shipment while its KV is on
	// the wire.
	await    map[int]workload.Request
	inflight map[int]*shipment
	xq       disagg.Queue
	ledger   disagg.Ledger

	transfers int
	bytes     int64
	xferUs    float64
}

func newDisaggState(cfg disagg.Config, instances int) *disaggState {
	return &disaggState{
		cfg:      cfg,
		roles:    cfg.Roles(instances),
		await:    make(map[int]workload.Request),
		inflight: make(map[int]*shipment),
	}
}

// Role returns instance i's (0-based) disaggregation pool role;
// every instance of a non-disaggregated cluster is mixed.
func (c *Cluster) Role(i int) disagg.Role {
	if c.dg == nil {
		return disagg.RoleMixed
	}
	return c.dg.roles[i]
}

// decodePicker is implemented by routing policies that choose the
// decode-side instance for a shipped prefill themselves (disagg-aware);
// for other policies the coordinator falls back to least-loaded over
// the decode and mixed pools.
type decodePicker interface {
	PickDecode(req workload.Request, snaps []Snapshot) int
}

// pickDecode chooses the decode-side instance for a finished prefill:
// the policy's own choice when it implements decodePicker, otherwise
// least-loaded over the decode and mixed pools. Prefill-only instances
// never decode.
func (c *Cluster) pickDecode(r workload.Request) int {
	snaps := make([]Snapshot, 0, len(c.engines))
	for i := range c.engines {
		if c.dg.roles[i] != disagg.RolePrefill {
			snaps = append(snaps, c.snapshot(i))
		}
	}
	if dp, ok := c.policy.(decodePicker); ok {
		return dp.PickDecode(r, snaps)
	}
	best := snaps[0]
	for _, s := range snaps[1:] {
		if less(s, best) {
			best = s
		}
	}
	return best.ID
}

// settle filters one step's completions through the coordinator:
// prefill children awaiting handoff are shipped (consumed here, never
// reaching the accumulator), final completions pass through.
func (c *Cluster) settle(inst int, comps []serving.Completion) ([]serving.Completion, error) {
	if c.dg == nil || len(comps) == 0 {
		return comps, nil
	}
	out := comps[:0]
	for _, cp := range comps {
		if _, ok := c.dg.await[cp.Req.ID]; ok {
			if err := c.shipPrefill(inst, cp); err != nil {
				return nil, err
			}
			continue
		}
		out = append(out, cp)
	}
	return out, nil
}

// shipPrefill turns an intercepted prefill-child completion into a
// scheduled KV transfer: collect the engine's export, stamp it with the
// child's lifecycle accounting (phase breakdown, honest TTFT, retry
// history), pick the decode instance, price the wire time on the
// receiver's NIC and enqueue delivery. The kv_ship trace event opens
// the decode side's span tree with an xfer:inst span.
func (c *Cluster) shipPrefill(from int, cp serving.Completion) error {
	parent := c.dg.await[cp.Req.ID]
	delete(c.dg.await, cp.Req.ID)
	exp, err := c.engines[from].TakeExport(cp.Req.ID)
	if err != nil {
		return fmt.Errorf("cluster: disagg ship request %d: %w", cp.Req.ID, err)
	}
	exp.FirstTokenUs = cp.FirstTokenUs
	exp.AsOfUs = cp.DoneUs
	exp.Phases = cp.Phases
	exp.Preempts = cp.Preemptions
	exp.RetryUs = cp.RetryUs
	exp.Attempts = cp.Attempts
	to := c.pickDecode(parent)
	xfer := float64(c.engines[to].Device().NICTransfer(float64(exp.Bytes)))
	exp.XferUs = xfer
	c.dg.xq.Push(disagg.Transfer{
		SeqID: cp.Req.ID, From: from, To: to,
		Bytes: exp.Bytes, DueUs: cp.DoneUs + xfer,
	})
	c.dg.inflight[cp.Req.ID] = &shipment{req: parent, exp: exp}
	c.dg.ledger.Record(from, to, exp.Bytes)
	c.dg.transfers++
	c.dg.bytes += exp.Bytes
	c.dg.xferUs += xfer
	c.emit(trace.Event{
		Kind: trace.KindKVShip, TimeUs: cp.DoneUs, Seq: cp.Req.ID, Inst: to + 1,
		Bytes: exp.Bytes, DurUs: xfer,
		Note: fmt.Sprintf("from=%d link=%s>%s", from+1, c.dg.roles[from], c.dg.roles[to]),
	})
	return nil
}

// processTransfer delivers the earliest due shipment: the decode
// instance queues the decode sub-request for adoption at the delivery
// time, resuming the parent's phase accounting across the wire.
func (c *Cluster) processTransfer() error {
	t, ok := c.dg.xq.Pop()
	if !ok {
		return fmt.Errorf("cluster: processTransfer on empty wire")
	}
	sh := c.dg.inflight[t.SeqID]
	if sh == nil {
		return fmt.Errorf("cluster: transfer %d has no shipment", t.SeqID)
	}
	delete(c.dg.inflight, t.SeqID)
	if err := c.engines[t.To].SubmitPrefilled(sh.req, sh.exp, t.DueUs); err != nil {
		return fmt.Errorf("cluster: adopt request %d on instance %d: %w", t.SeqID, t.To+1, err)
	}
	return nil
}
