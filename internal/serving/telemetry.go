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

// InstanceStats is one serving instance's share of the load gauges.
// Engine.Stats fills the engine's own fields; the cluster tags the row
// with Inst, Health, Redispatched and Role.
type InstanceStats struct {
	// Inst is the 1-based instance tag (matching trace.Event.Inst in
	// cluster runs).
	Inst        int
	QueueDepth  int
	Running     int
	Swapped     int
	FreeKVPages int
	UsedKVPages int
	// Health is the instance's fault-injection state: "healthy",
	// "degraded" (transient slowdown) or "down" (crashed, awaiting
	// restart). Always "healthy" without fault injection.
	Health string
	// Redispatched counts crash orphans this instance accepted.
	Redispatched int
	// ResidentTokens / SwappedTokens are the GPU-resident and host-tier
	// KV token footprints; TokenCapacity is the whole-pool token budget
	// (Engine.TotalTokenCapacity). Together they feed the saturation
	// analyzer: demand = resident + swapped + queued×avg-prompt against
	// capacity.
	ResidentTokens int
	SwappedTokens  int
	TokenCapacity  float64
	// HostBytes is the host tier's current occupancy — swapped
	// sequences and spilled prefixes (0 without a host tier).
	HostBytes int64
	// Per-instance lifetime counters for {inst}-labelled exposition.
	Preemptions  int
	SwapOutBytes int64
	SwapInBytes  int64
	// Role is the instance's disaggregation pool ("prefill", "decode" or
	// "mixed"); empty without disaggregation.
	Role string
}

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
// telemetry package's fleet observation. The conversion lives here (not
// in telemetry) so telemetry never imports serving — the dependency
// runs one way, serving → telemetry, with no cycle.
func ObservationFromStats(ds DriverStats) telemetry.Observation {
	obs := telemetry.Observation{
		TimeUs:                 ds.ClockUs,
		ThroughputTokensPerSec: ds.ThroughputTokensPerSec,
		GoodputTokensPerSec:    ds.GoodputTokensPerSec,
		InstancesUp:            ds.InstancesUp,
		Completed:              int64(ds.Completed),
		Rejected:               int64(ds.Rejected),
		PerInstance:            make([]telemetry.InstanceObservation, 0, len(ds.PerInstance)),
	}
	for _, is := range ds.PerInstance {
		obs.PerInstance = append(obs.PerInstance, telemetry.InstanceObservation{
			Inst:           is.Inst,
			QueueDepth:     is.QueueDepth,
			Running:        is.Running,
			Swapped:        is.Swapped,
			FreeKVPages:    int64(is.FreeKVPages),
			UsedKVPages:    int64(is.UsedKVPages),
			ResidentTokens: int64(is.ResidentTokens),
			SwappedTokens:  int64(is.SwappedTokens),
			MemoryTokens:   is.TokenCapacity,
			HostBytes:      is.HostBytes,
			Health:         is.Health,
			Preemptions:    int64(is.Preemptions),
			SwapOutBytes:   is.SwapOutBytes,
			SwapInBytes:    is.SwapInBytes,
		})
	}
	return obs
}
