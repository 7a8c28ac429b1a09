package serving

import "diffkv/internal/telemetry"

// FeedTelemetry is the one event-loop → telemetry feed, shared by Loop
// and the cluster's batch event loop: record the step's completion
// latencies, then take a cadence sample of d when one is due at nowUs
// (only a due tick pays for the Stats walk). A nil center is a no-op.
// Completions from a bare engine carry no instance tag and count as the
// single-instance fleet's instance 1.
func FeedTelemetry(tc *telemetry.Center, d interface{ Stats() DriverStats }, comps []Completion, nowUs float64) {
	if tc == nil {
		return
	}
	for _, cp := range comps {
		ttft, tpot, e2e := cp.LatencySec()
		tc.RecordCompletion(max(cp.Inst, 1), cp.DoneUs, ttft, tpot, e2e, cp.Req.GenLen)
	}
	if tc.Due(nowUs) {
		tc.Sample(ObservationFromStats(d.Stats()))
	}
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
