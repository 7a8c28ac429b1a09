package telemetry

import "sort"

// sparkLen bounds the sparkline tails shipped in snapshots — enough for
// a terminal-width trend without bloating the JSON.
const sparkLen = 32

// InstanceSnapshot is one instance's row in a Snapshot: its load row as
// last sampled, plus what the Center derives from it.
type InstanceSnapshot struct {
	InstanceStats
	DemandTokens float64 `json:"demand_tokens"`

	Headroom            float64 `json:"headroom"`
	HeadroomSlopePerSec float64 `json:"headroom_slope_per_sec"`
	TimeToSaturationSec float64 `json:"time_to_saturation_sec,omitempty"`
	Advisory            string  `json:"advisory,omitempty"`

	// Sparkline tails (oldest first) for the dashboard.
	QueueSpark    []float64 `json:"queue_spark,omitempty"`
	HeadroomSpark []float64 `json:"headroom_spark,omitempty"`

	Latency map[string]LatencySnapshot `json:"latency,omitempty"`
}

// ClusterSnapshot is the fleet-wide roll-up.
type ClusterSnapshot struct {
	InstancesUp            int     `json:"instances_up"`
	QueueDepth             int     `json:"queue_depth"`
	Running                int     `json:"running"`
	Completed              int64   `json:"completed"`
	Rejected               int64   `json:"rejected"`
	ThroughputTokensPerSec float64 `json:"throughput_tokens_per_sec"`
	GoodputTokensPerSec    float64 `json:"goodput_tokens_per_sec"`
	CapacityTokens         float64 `json:"capacity_tokens"`
	DemandTokens           float64 `json:"demand_tokens"`
	Headroom               float64 `json:"headroom"`
	HeadroomSlopePerSec    float64 `json:"headroom_slope_per_sec"`
	TimeToSaturationSec    float64 `json:"time_to_saturation_sec,omitempty"`
	Advisory               string  `json:"advisory,omitempty"`

	GoodputSpark  []float64 `json:"goodput_spark,omitempty"`
	HeadroomSpark []float64 `json:"headroom_spark,omitempty"`
}

// Snapshot is the full telemetry state at one instant — the payload of
// GET /debug/telemetry and each SSE frame, and diffkv-top's input.
type Snapshot struct {
	TimeUs           float64 `json:"time_us"`
	SampleIntervalUs float64 `json:"sample_interval_us"`
	Samples          int64   `json:"samples"`
	// Offline marks a snapshot reconstructed from a trace file (no
	// capacity or KV-page data in the event stream).
	Offline bool `json:"offline,omitempty"`

	Cluster   ClusterSnapshot            `json:"cluster"`
	Instances []InstanceSnapshot         `json:"instances"`
	Latency   map[string]LatencySnapshot `json:"latency"`
	SLOs      []SLOStatus                `json:"slos,omitempty"`
	Alerts    []Alert                    `json:"alerts,omitempty"`
}

// Snapshot renders the current state. Safe to call concurrently with
// sampling.
func (c *Center) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()

	obs := c.lastObs
	avgPrompt := c.avgPrompt.v

	snap := Snapshot{
		TimeUs:           obs.TimeUs,
		SampleIntervalUs: c.cfg.SampleIntervalUs,
		Samples:          c.samples,
	}

	var clusterCap, clusterDemand float64
	var queueTotal, runningTotal int
	insts := make([]int, 0, len(c.inst))
	for k := range c.inst {
		insts = append(insts, k)
	}
	sort.Ints(insts)
	for _, k := range insts {
		s := c.inst[k]
		io := s.last
		demand := float64(io.ResidentTokens+io.SwappedTokens) + float64(io.QueueDepth)*avgPrompt
		clusterCap += io.TokenCapacity
		clusterDemand += demand
		queueTotal += io.QueueDepth
		runningTotal += io.Running
		sat := c.satByKey[k]
		row := InstanceSnapshot{
			InstanceStats:       io,
			DemandTokens:        demand,
			Headroom:            sat.Headroom,
			HeadroomSlopePerSec: sat.SlopePerSec,
			TimeToSaturationSec: sat.TimeToSaturationSec,
			Advisory:            sat.Standing,
			QueueSpark:          s.queueDepth.Tail(sparkLen),
		}
		if hs := c.analyzer.HeadroomSeries(k); hs != nil {
			row.HeadroomSpark = hs.Tail(sparkLen)
		}
		if ls := c.perInstLat[k]; ls != nil {
			row.Latency = ls.snapshot()
		}
		snap.Instances = append(snap.Instances, row)
	}

	clusterSat := c.satByKey[0]
	snap.Cluster = ClusterSnapshot{
		InstancesUp:            obs.InstancesUp,
		QueueDepth:             queueTotal,
		Running:                runningTotal,
		Completed:              obs.Completed,
		Rejected:               obs.Rejected,
		ThroughputTokensPerSec: obs.ThroughputTokensPerSec,
		GoodputTokensPerSec:    obs.GoodputTokensPerSec,
		CapacityTokens:         clusterCap,
		DemandTokens:           clusterDemand,
		Headroom:               clusterSat.Headroom,
		HeadroomSlopePerSec:    clusterSat.SlopePerSec,
		TimeToSaturationSec:    clusterSat.TimeToSaturationSec,
		Advisory:               clusterSat.Standing,
		GoodputSpark:           c.goodput.Tail(sparkLen),
	}
	if hs := c.analyzer.HeadroomSeries(0); hs != nil {
		snap.Cluster.HeadroomSpark = hs.Tail(sparkLen)
	}

	merged := c.mergedLatencyLocked()
	snap.Latency = merged.snapshot()

	snap.SLOs = c.sloStatusesLocked()

	snap.Alerts = make([]Alert, 0, len(c.alerts))
	snap.Alerts = append(snap.Alerts, c.alerts[c.alertsStart:]...)
	snap.Alerts = append(snap.Alerts, c.alerts[:c.alertsStart]...)
	return snap
}
