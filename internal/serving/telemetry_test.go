package serving

import "testing"

// TestObservationFromStats pins the DriverStats -> Observation mapping
// the cluster's telemetry feed relies on: the six fleet fields are
// copied and the per-instance load rows are shared, not copied.
func TestObservationFromStats(t *testing.T) {
	ds := DriverStats{
		ClockUs:                5e6,
		InstancesUp:            2,
		Completed:              7,
		Rejected:               1,
		ThroughputTokensPerSec: 123,
		GoodputTokensPerSec:    100,
		PerInstance: []InstanceStats{
			{Inst: 1, QueueDepth: 3, Running: 2, Swapped: 1,
				ResidentTokens: 400, SwappedTokens: 50, TokenCapacity: 1000,
				Preemptions: 2, SwapOutBytes: 8192, SwapInBytes: 4096, HostBytes: 6144,
				FreeKVPages: 10, UsedKVPages: 20, Health: "healthy"},
		},
	}
	obs := ObservationFromStats(ds)
	if obs.TimeUs != 5e6 || obs.InstancesUp != 2 || obs.Completed != 7 || obs.Rejected != 1 {
		t.Fatalf("fleet fields: %+v", obs)
	}
	if obs.ThroughputTokensPerSec != 123 || obs.GoodputTokensPerSec != 100 {
		t.Fatalf("fleet rates: %+v", obs)
	}
	if len(obs.PerInstance) != 1 || &obs.PerInstance[0] != &ds.PerInstance[0] {
		t.Fatalf("per-instance rows are not the snapshot's own: %+v", obs.PerInstance)
	}
	io := obs.PerInstance[0]
	if io.Inst != 1 || io.QueueDepth != 3 || io.Running != 2 || io.Swapped != 1 {
		t.Fatalf("occupancy: %+v", io)
	}
	if io.TokenCapacity != 1000 {
		t.Fatalf("capacity: %+v", io)
	}
	// host bytes are the tier's occupancy as the engine reports it, not
	// net swap traffic
	if io.HostBytes != 6144 {
		t.Fatalf("HostBytes = %d", io.HostBytes)
	}
	if io.ResidentTokens != 400 || io.SwappedTokens != 50 {
		t.Fatalf("token occupancy: %+v", io)
	}
}
