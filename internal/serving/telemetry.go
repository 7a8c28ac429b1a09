package serving

import "diffkv/internal/telemetry"

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
		// outstanding host-tier footprint: bytes swapped out minus bytes
		// brought back (cancel-freed state keeps this an upper bound)
		hostBytes := is.SwapOutBytes - is.SwapInBytes
		if hostBytes < 0 {
			hostBytes = 0
		}
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
			HostBytes:      hostBytes,
			Health:         is.Health,
			Preemptions:    int64(is.Preemptions),
			SwapOutBytes:   is.SwapOutBytes,
			SwapInBytes:    is.SwapInBytes,
		})
	}
	return obs
}
