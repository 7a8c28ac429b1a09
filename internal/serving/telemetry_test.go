package serving

import (
	"context"
	"sync"
	"testing"
	"time"

	"diffkv/internal/telemetry"
	"diffkv/internal/workload"
)

// TestLoopTelemetrySampling is the concurrency contract of the
// telemetry attachment: the loop samples the center between steps and
// records every completion while the gateway-side surface (Snapshot,
// LatencyHists) is polled from other goroutines. Under -race this
// proves the center's lock covers both sides; functionally it proves
// no completion is lost and occupancy is sampled.
func TestLoopTelemetrySampling(t *testing.T) {
	tc := telemetry.New(telemetry.Config{
		// sample every simulated 10ms so a short run still collects
		// plenty of ticks
		SampleIntervalUs: 1e4,
		SLOs:             []telemetry.SLOSpec{{Metric: "ttft", TargetSec: 10}},
	})
	l := NewLoop(newLoopEngine(t, 11), LoopConfig{Telemetry: tc})

	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tc.Snapshot()
			_ = snap.Cluster.Headroom
			tc.LatencyHists()
			tc.SLOStatuses()
		}
	}()

	const n = 16
	var wg sync.WaitGroup
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := l.Open(context.Background(),
				workload.Request{PromptLen: 128 + 16*i, GenLen: 8 + i}, nil)
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			sessions[i] = s
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, s := range sessions {
		select {
		case <-s.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("session %d never completed", i)
		}
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	poll.Wait()

	snap := tc.Snapshot()
	if snap.Samples == 0 {
		t.Fatal("loop never sampled the center")
	}
	if got := snap.Latency["e2e"].Count; got != n {
		t.Fatalf("e2e completions recorded = %d, want %d", got, n)
	}
	if got := snap.Latency["ttft"].Count; got != n {
		t.Fatalf("ttft completions recorded = %d, want %d", got, n)
	}
	if len(snap.Instances) != 1 || snap.Instances[0].Inst != 1 {
		t.Fatalf("instances: %+v", snap.Instances)
	}
	// a bare engine has a KV manager, so capacity must be known and
	// headroom computable
	if snap.Instances[0].CapacityTokens <= 0 {
		t.Fatalf("capacity = %g, want > 0", snap.Instances[0].CapacityTokens)
	}
}

// TestObservationFromStats pins the DriverStats -> Observation mapping
// the loop and cluster both rely on.
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
				Preemptions: 2, SwapOutBytes: 8192, SwapInBytes: 4096,
				FreeKVPages: 10, UsedKVPages: 20, Health: "healthy"},
		},
	}
	obs := ObservationFromStats(ds)
	if obs.TimeUs != 5e6 || obs.InstancesUp != 2 || obs.Completed != 7 || obs.Rejected != 1 {
		t.Fatalf("fleet fields: %+v", obs)
	}
	if len(obs.PerInstance) != 1 {
		t.Fatalf("per-instance: %+v", obs.PerInstance)
	}
	io := obs.PerInstance[0]
	if io.Inst != 1 || io.QueueDepth != 3 || io.Running != 2 || io.Swapped != 1 {
		t.Fatalf("occupancy: %+v", io)
	}
	if io.MemoryTokens != 1000 || io.ComputeTokens != 0 {
		t.Fatalf("capacity axes: %+v", io)
	}
	if io.Capacity() != 1000 {
		t.Fatalf("Capacity() = %g", io.Capacity())
	}
	// host bytes = net swap traffic still parked on the host
	if io.HostBytes != 8192-4096 {
		t.Fatalf("HostBytes = %d", io.HostBytes)
	}
	if io.ResidentTokens != 400 || io.SwappedTokens != 50 {
		t.Fatalf("token occupancy: %+v", io)
	}
}
