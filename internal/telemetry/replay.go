package telemetry

import (
	"sort"

	"diffkv/internal/trace"
)

// Offline replay: reconstruct a telemetry Snapshot from a recorded
// trace event stream so diffkv-top can render a finished run without a
// live gateway. The event stream carries request lifecycle and swap
// traffic but not KV-page or capacity counters, so the result is marked
// Offline and omits headroom (there is nothing sound to divide by);
// queue/running occupancy, latency histograms, swap byte totals and the
// KindAlert timeline are reconstructed exactly.

// replayInst is the per-instance state during replay: the load row the
// event stream can fill, its latency histograms, and the host bytes
// each swapped-out sequence holds until it leaves the host tier.
type replayInst struct {
	row      InstanceStats
	lat      LatencySet
	swapHeld map[int]int64
}

// release drops seq's swapped bytes from the host tier, if it holds any.
func (ri *replayInst) release(seq int) {
	ri.row.HostBytes -= ri.swapHeld[seq]
	delete(ri.swapHeld, seq)
}

// Replay folds a trace event stream (emission order) into an offline
// Snapshot. Requests come from trace.BuildRequestSpans, one tree per
// request however many instances it crossed: a completed tree counts
// once, with its E2E and TTFT (arrival to the end of its last prefill,
// the engine's rule) on the instance that completed it, and an in-flight
// tree occupies the instance it was last seen on, by the phase it ended
// in. Swap traffic, preemptions, health, rejects and alerts come from
// the events themselves; a swapped sequence's host bytes are released by
// its swap-in, its cancel or a crash's retry of it (a crash with a
// restart keeps its swapped sequences and emits no retry for them).
// Offline host_bytes counts swapped sequences only: a prefix spill to
// the host tier emits no event, so the spilled prefix bytes the live
// row counts cannot be replayed.
// Events with unknown kinds are ignored, so replay stays
// forward-compatible with new event types.
func Replay(events []trace.Event) Snapshot {
	insts := map[int]*replayInst{}
	var alerts []Alert
	var lastUs float64
	var completed, rejected int64

	get := func(inst int) *replayInst {
		ri := insts[inst]
		if ri == nil {
			ri = &replayInst{row: InstanceStats{Inst: inst, Health: "healthy"}, swapHeld: map[int]int64{}}
			insts[inst] = ri
		}
		return ri
	}

	for _, e := range events {
		if e.TimeUs > lastUs {
			lastUs = e.TimeUs
		}
		ri := get(e.Inst)
		switch e.Kind {
		case trace.KindPreempt:
			ri.row.Preemptions++
		case trace.KindSwapOut:
			ri.row.HostBytes += e.Bytes
			ri.swapHeld[e.Seq] += e.Bytes
			ri.row.SwapOutBytes += e.Bytes
			ri.row.Preemptions++
		case trace.KindSwapIn:
			ri.release(e.Seq)
			ri.row.SwapInBytes += e.Bytes
		case trace.KindCancel, trace.KindRetry:
			ri.release(e.Seq)
		case trace.KindReject:
			rejected++
		case trace.KindHealth:
			ri.row.Health = e.Note
		case trace.KindAlert:
			alerts = append(alerts, Alert{TimeUs: e.TimeUs, Inst: e.Inst, Note: e.Note})
		}
	}

	for _, rt := range trace.BuildRequestSpans(events) {
		ri := get(rt.Inst)
		if rt.Completed {
			completed++
			ri.lat.E2E.Add(rt.E2EUs() / 1e6)
			if ttft, ok := rt.TTFTUs(); ok {
				ri.lat.TTFT.Add(ttft / 1e6)
			}
		}
		switch rt.Phase {
		case trace.PhaseQueue, trace.PhaseStall:
			ri.row.QueueDepth++
		case trace.PhasePrefill, trace.PhaseDecode:
			ri.row.Running++
		case trace.PhaseSwapped:
			ri.row.Swapped++
		}
	}

	snap := Snapshot{TimeUs: lastUs, Offline: true, Alerts: alerts}

	keys := make([]int, 0, len(insts))
	for k := range insts {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	var merged LatencySet
	var queueTotal, runningTotal, up int
	for _, k := range keys {
		ri := insts[k]
		// instance 0 collects the cluster's own untagged events (rejects,
		// cluster-wide alerts), which move no occupancy: skip its row when
		// it has nothing to show. A tagged instance always has a row, a
		// prefill-pool one with no completion of its own included.
		if ri.row.Inst == 0 && ri.row.QueueDepth == 0 && ri.row.Running == 0 && ri.row.Swapped == 0 &&
			ri.lat.E2E.Count() == 0 && ri.row.SwapOutBytes == 0 && ri.row.Preemptions == 0 {
			continue
		}
		queueTotal += ri.row.QueueDepth
		runningTotal += ri.row.Running
		if ri.row.Health != "down" {
			up++
		}
		row := InstanceSnapshot{
			InstanceStats: ri.row,
			Latency: map[string]LatencySnapshot{
				"ttft": ri.lat.TTFT.snapshot(),
				"e2e":  ri.lat.E2E.snapshot(),
			},
		}
		merged.merge(&ri.lat)
		snap.Instances = append(snap.Instances, row)
	}

	snap.Cluster = ClusterSnapshot{
		InstancesUp: up,
		QueueDepth:  queueTotal,
		Running:     runningTotal,
		Completed:   completed,
		Rejected:    rejected,
	}
	snap.Latency = map[string]LatencySnapshot{
		"ttft": merged.TTFT.snapshot(),
		"e2e":  merged.E2E.snapshot(),
	}
	return snap
}
