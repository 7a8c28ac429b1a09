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

// replayInst is the per-instance state during replay.
type replayInst struct {
	inst         int
	queue        int
	running      int
	swapped      int
	hostBytes    int64
	swapOutBytes int64
	swapInBytes  int64
	preemptions  int64
	health       string
	lat          LatencySet
}

// Replay folds a trace event stream (emission order) into an offline
// Snapshot. Requests come from trace.BuildRequestSpans, one tree per
// request however many instances it crossed: a completed tree counts
// once, with its E2E and TTFT (arrival to the end of its last prefill,
// the engine's rule) on the instance that completed it, and an in-flight
// tree occupies the instance it was last seen on, by the phase it ended
// in. Swap traffic, preemptions, health, rejects and alerts come from
// the events themselves. Events with unknown kinds are ignored, so
// replay stays forward-compatible with new event types.
func Replay(events []trace.Event) Snapshot {
	insts := map[int]*replayInst{}
	var alerts []Alert
	var lastUs float64
	var completed, rejected int64

	get := func(inst int) *replayInst {
		ri := insts[inst]
		if ri == nil {
			ri = &replayInst{inst: inst, health: "healthy"}
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
			ri.preemptions++
		case trace.KindSwapOut:
			ri.hostBytes += e.Bytes
			ri.swapOutBytes += e.Bytes
			ri.preemptions++
		case trace.KindSwapIn:
			ri.hostBytes -= e.Bytes
			if ri.hostBytes < 0 {
				ri.hostBytes = 0
			}
			ri.swapInBytes += e.Bytes
		case trace.KindReject:
			rejected++
		case trace.KindHealth:
			ri.health = e.Note
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
			ri.queue++
		case trace.PhasePrefill, trace.PhaseDecode:
			ri.running++
		case trace.PhaseSwapped:
			ri.swapped++
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
		if ri.inst == 0 && ri.queue == 0 && ri.running == 0 && ri.swapped == 0 &&
			ri.lat.E2E.Count() == 0 && ri.swapOutBytes == 0 && ri.preemptions == 0 {
			continue
		}
		queueTotal += ri.queue
		runningTotal += ri.running
		if ri.health != "down" {
			up++
		}
		row := InstanceSnapshot{
			Inst:          ri.inst,
			Health:        ri.health,
			QueueDepth:    ri.queue,
			Running:       ri.running,
			Swapped:       ri.swapped,
			HostBytes:     ri.hostBytes,
			Preemptions:   ri.preemptions,
			SwapOutBytes:  ri.swapOutBytes,
			SwapInBytes:   ri.swapInBytes,
			SwappedTokens: 0,
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
