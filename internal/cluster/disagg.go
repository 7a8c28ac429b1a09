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
//	    └─ TakeExport ─ pickDecode ─ NIC.Transfer ─ schedule(deliver)
//	        └─ due: SubmitPrefilled on the decode instance ─ final
//	           completion passes through to metrics/telemetry
//
// Deliveries are scheduled work (events.go), interleaved with faults,
// arrivals and steps in global timestamp order, so a disaggregated run
// is as deterministic as a colocated one. The intercepted prefill
// completion never reaches the accumulator: a request is dispatched once
// and completed once (by its decode child, which carries the composed
// phase breakdown), keeping Stuck() == 0.

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

// disaggState is the cluster's coordinator state (nil without
// Config.Disagg).
type disaggState struct {
	cfg    disagg.Config
	roles  []disagg.Role
	ledger disagg.Ledger

	transfers int
	bytes     int64
	xferUs    float64
}

func newDisaggState(cfg disagg.Config, instances int) *disaggState {
	return &disaggState{cfg: cfg, roles: cfg.Roles(instances)}
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
	snaps := c.snapshots(func(s Snapshot) bool { return s.Role != disagg.RolePrefill })
	if dp, ok := c.policy.(decodePicker); ok {
		return dp.PickDecode(r, snaps)
	}
	return pickLeast(snaps)
}

// settle filters one step's completions through the coordinator:
// prefill children left an export behind and are shipped (consumed here,
// never reaching the accumulator), final completions pass through.
func (c *Cluster) settle(inst int, comps []serving.Completion) []serving.Completion {
	if c.dg == nil {
		return comps
	}
	out := comps[:0]
	for _, cp := range comps {
		if exp, ok := c.engines[inst].TakeExport(cp.Req.ID); ok {
			c.shipPrefill(inst, exp)
			continue
		}
		out = append(out, cp)
	}
	return out
}

// shipPrefill turns a finished prefill child's export into a scheduled KV
// transfer: pick the decode instance, price the wire time on the
// receiver's NIC and schedule delivery, keyed by request ID; the closure
// holds the export while it is on the wire. The export already carries
// the child's whole request record (phase breakdown, honest TTFT, retry
// history), closed at its completion clock AsOfUs. The kv_ship trace
// event opens the decode side's span tree with an xfer:inst span.
func (c *Cluster) shipPrefill(from int, exp *serving.KVExport) {
	id, doneUs := exp.Req.ID, exp.AsOfUs
	to := c.pickDecode(exp.Req)
	xfer := float64(c.engines[to].Device().NIC.Transfer(float64(exp.Bytes)))
	exp.XferUs = xfer
	at := doneUs + xfer
	c.schedule(at, id, func() error { return c.deliver(exp, to, at) })
	c.dg.ledger.Record(from, to, exp.Bytes)
	c.dg.transfers++
	c.dg.bytes += exp.Bytes
	c.dg.xferUs += xfer
	c.emit(trace.Event{
		Kind: trace.KindKVShip, TimeUs: doneUs, Seq: id, Inst: to + 1,
		Bytes: exp.Bytes, DurUs: xfer,
		Note: fmt.Sprintf("from=%d link=%s>%s", from+1, c.dg.roles[from], c.dg.roles[to]),
	})
}

// deliver lands a shipment on decode instance to at atUs: the instance
// queues the decode sub-request for adoption, resuming the parent's phase
// accounting across the wire. A session cancelled while on the wire is
// delivered like any other; the decode engine reaps it before admitting
// anything.
func (c *Cluster) deliver(exp *serving.KVExport, to int, atUs float64) error {
	if err := c.engines[to].SubmitPrefilled(exp, atUs); err != nil {
		return fmt.Errorf("cluster: adopt request %d on instance %d: %w", exp.Req.ID, to+1, err)
	}
	c.touch(to)
	return nil
}
