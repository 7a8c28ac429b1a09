package serving

import (
	"diffkv/internal/disagg"
	"diffkv/internal/telemetry"
)

// DriverStats is the fleet-wide counter snapshot a cluster reports
// (cluster.Cluster.Stats): its own admission, fault and handoff
// counters, the engines' counters summed, and one InstanceStats row per
// engine.
type DriverStats struct {
	// Instances is the fleet width.
	Instances int
	// QueueDepth / Running / Swapped / OpenSessions describe in-flight
	// load summed over instances.
	QueueDepth   int
	Running      int
	Swapped      int
	OpenSessions int
	// Completed / Cancelled / Rejected / Preemptions are lifetime
	// counters (Rejected is cluster admission shedding).
	Completed   int
	Cancelled   int
	Rejected    int
	Preemptions int
	// Fault-recovery lifetime counters (all zero without fault
	// injection). Failed counts requests terminally failed after
	// exhausting their crash re-dispatch budget; Redispatches counts
	// orphan re-dispatches to surviving instances; Crashes / Restarts
	// count instance fault transitions; LostKVBytes is the GPU KV
	// footprint destroyed by crashes; SwapRecovered counts sequences the
	// host tier carried through a crash; BrownoutAdmits counts
	// admissions forced to the all-low tier under queue pressure.
	Failed         int
	Redispatches   int
	Crashes        int
	Restarts       int
	LostKVBytes    int64
	SwapRecovered  int
	BrownoutAdmits int
	// InstancesUp counts instances currently not down (equals Instances
	// without fault injection).
	InstancesUp int
	// ClockUs is the latest simulated clock across instances.
	ClockUs float64
	// ThroughputTokensPerSec / GoodputTokensPerSec are simulated-time
	// token rates (goodput counts completed requests' tokens only).
	ThroughputTokensPerSec float64
	GoodputTokensPerSec    float64
	// KV page-pool occupancy summed over manager-mode instances.
	FreeKVPages int
	UsedKVPages int
	// Host-tier offload traffic summed over instances.
	SwapOutBytes   int64
	SwapInBytes    int64
	HostPrefixHits int
	// Disaggregated prefill/decode handoff traffic (all zero without
	// disaggregation): KVTransfers counts prefill→decode shipments,
	// KVBytesShipped their compressed payload bytes on the wire, and
	// KVShipLinks the per-(from,to) instance-pair breakdown.
	KVTransfers    int
	KVBytesShipped int64
	KVShipLinks    []disagg.LinkBytes
	// PerInstance breaks the load gauges down per serving instance so a
	// scrape can tell a hot instance from a balanced fleet.
	PerInstance []InstanceStats
}

// InstanceStats is one serving instance's load row (telemetry's one
// per-instance shape). Engine.Stats fills the engine's own fields; the
// cluster tags the row with Inst, Health, Redispatched and Role.
type InstanceStats = telemetry.InstanceStats

// Stats returns the engine's load row: occupancy gauges and per-instance
// counters. Inst, Health, Redispatched and Role are the cluster's to
// fill.
func (e *Engine) Stats() InstanceStats {
	is := InstanceStats{
		QueueDepth:     len(e.pending),
		Running:        len(e.running),
		Swapped:        len(e.swappedQ),
		ResidentTokens: e.ResidentTokens(),
		SwappedTokens:  e.SwappedTokens(),
		TokenCapacity:  e.TotalTokenCapacity(),
		Preemptions:    e.preemptTotal,
	}
	is.FreeKVPages, is.UsedKVPages = e.kv.pages()
	if e.tiered != nil {
		om := e.tiered.Metrics()
		is.SwapOutBytes, is.SwapInBytes = om.SwapOutBytes, om.SwapInBytes
		is.HostBytes = e.tiered.HostUsedBytes()
	}
	return is
}

// ObservationFromStats converts a driver counter snapshot into the
// telemetry package's fleet observation, sharing the per-instance rows.
// The conversion lives here (not in telemetry) so telemetry never
// imports serving — the dependency runs one way, serving → telemetry,
// with no cycle.
func ObservationFromStats(ds DriverStats) telemetry.Observation {
	return telemetry.Observation{
		TimeUs:                 ds.ClockUs,
		ThroughputTokensPerSec: ds.ThroughputTokensPerSec,
		GoodputTokensPerSec:    ds.GoodputTokensPerSec,
		InstancesUp:            ds.InstancesUp,
		Completed:              int64(ds.Completed),
		Rejected:               int64(ds.Rejected),
		PerInstance:            ds.PerInstance,
	}
}
