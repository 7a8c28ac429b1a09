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

// replayInst is the per-instance state machine during replay.
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

// reqState tracks one in-flight request keyed by (inst, seq).
type reqState struct {
	openUs  float64
	ttftUs  float64
	hasTTFT bool
}

// Replay folds a trace event stream (emission order) into an offline
// Snapshot. Events with unknown kinds are ignored, so replay stays
// forward-compatible with new event types.
func Replay(events []trace.Event) Snapshot {
	insts := map[int]*replayInst{}
	reqs := map[trace.InstSeq]*reqState{}
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
		key := trace.InstSeq{Inst: e.Inst, Seq: e.Seq}
		switch e.Kind {
		case trace.KindOpen:
			ri.queue++
			reqs[key] = &reqState{openUs: e.TimeUs}
		case trace.KindAdmit:
			if ri.queue > 0 {
				ri.queue--
			}
			ri.running++
		case trace.KindFirstToken:
			if r := reqs[key]; r != nil && !r.hasTTFT {
				r.ttftUs = e.TimeUs
				r.hasTTFT = true
			}
		case trace.KindPreempt:
			if ri.running > 0 {
				ri.running--
			}
			ri.queue++
			ri.preemptions++
		case trace.KindSwapOut:
			if ri.running > 0 {
				ri.running--
			}
			ri.swapped++
			ri.hostBytes += e.Bytes
			ri.swapOutBytes += e.Bytes
			ri.preemptions++
		case trace.KindSwapIn:
			if ri.swapped > 0 {
				ri.swapped--
			}
			ri.running++
			ri.hostBytes -= e.Bytes
			if ri.hostBytes < 0 {
				ri.hostBytes = 0
			}
			ri.swapInBytes += e.Bytes
		case trace.KindComplete:
			if ri.running > 0 {
				ri.running--
			}
			completed++
			if r := reqs[key]; r != nil {
				e2e := (e.TimeUs - r.openUs) / 1e6
				ri.lat.E2E.Add(e2e)
				if r.hasTTFT {
					ri.lat.TTFT.Add((r.ttftUs - r.openUs) / 1e6)
				}
				delete(reqs, key)
			}
		case trace.KindCancel, trace.KindFail:
			// mid-flight exit: release whichever occupancy slot it held
			if ri.running > 0 {
				ri.running--
			} else if ri.queue > 0 {
				ri.queue--
			}
			delete(reqs, key)
		case trace.KindReject:
			rejected++
		case trace.KindHealth:
			ri.health = e.Note
		case trace.KindAlert:
			alerts = append(alerts, Alert{TimeUs: e.TimeUs, Inst: e.Inst, Note: e.Note})
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
		// cluster-wide alerts), which move no occupancy: skip every row
		// with nothing to show
		if ri.queue == 0 && ri.running == 0 && ri.swapped == 0 &&
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
