package telemetry

import (
	"strings"
	"testing"

	"diffkv/internal/trace"
)

// obsAt builds a one-instance fleet observation with the given queue
// depth and resident tokens against a 1000-token capacity.
func obsAt(timeUs float64, queue int, resident int64) Observation {
	return Observation{
		TimeUs:      timeUs,
		InstancesUp: 1,
		PerInstance: []InstanceObservation{{
			Inst: 1, QueueDepth: queue, Running: 2,
			ResidentTokens: resident, MemoryTokens: 1000,
		}},
	}
}

// TestCenterDueGating: Due is the cadence gate — false until the
// interval elapses past the last sample.
func TestCenterDueGating(t *testing.T) {
	c := New(Config{SampleIntervalUs: 1e6})
	if !c.Due(0) {
		t.Fatal("first sample not due at t=0")
	}
	c.Sample(obsAt(0, 0, 0))
	if c.Due(0.5e6) {
		t.Fatal("due again mid-interval")
	}
	if !c.Due(1e6) {
		t.Fatal("not due after a full interval")
	}
}

// TestCenterSampleToAlert drives a Center through a saturation ramp and
// checks the full chain: rings fill, headroom falls, the advisory
// fires once, and the alert is mirrored to the tracer as a KindAlert
// event with the deterministic note.
func TestCenterSampleToAlert(t *testing.T) {
	col := trace.NewCollector(1024)
	c := New(Config{
		SampleIntervalUs: 1e6,
		Tracer:           col,
		Saturation:       SatConfig{UpHold: 3, CooldownUs: 1},
	})
	// demand ramps from 0 to 990 of a 1000-token capacity
	for i := 0; i <= 30; i++ {
		c.Sample(obsAt(float64(i)*1e6, 0, int64(i*33)))
	}
	alerts := c.Snapshot().Alerts
	if len(alerts) == 0 {
		t.Fatal("saturation ramp emitted no alerts")
	}
	var sawUp bool
	for _, a := range alerts {
		if strings.HasPrefix(a.Note, "scale_up") {
			sawUp = true
		}
	}
	if !sawUp {
		t.Fatalf("no scale_up in %v", alerts)
	}
	var traced int
	for _, e := range col.Events() {
		if e.Kind == trace.KindAlert {
			traced++
		}
	}
	if traced != len(alerts) {
		t.Fatalf("tracer saw %d alerts, center emitted %d", traced, len(alerts))
	}

	snap := c.Snapshot()
	if snap.Samples != 31 || len(snap.Instances) != 1 {
		t.Fatalf("snapshot: samples=%d instances=%d", snap.Samples, len(snap.Instances))
	}
	in := snap.Instances[0]
	if in.Inst != 1 || in.Headroom > 0.1 {
		t.Fatalf("instance snapshot: %+v", in)
	}
	if len(in.QueueSpark) == 0 || len(in.HeadroomSpark) == 0 {
		t.Fatal("snapshot missing sparklines")
	}
}

// TestCenterQueuedDemand: queued requests count against headroom via
// the prompt-length EWMA, so a deep queue saturates an otherwise-empty
// instance.
func TestCenterQueuedDemand(t *testing.T) {
	c := New(Config{SampleIntervalUs: 1e6})
	for i := 0; i < 10; i++ {
		c.RecordOpen(200) // avg prompt settles at 200 tokens
	}
	c.Sample(obsAt(0, 10, 0)) // 10 queued x 200 = 2000 demand vs 1000 cap
	snap := c.Snapshot()
	if h := snap.Instances[0].Headroom; h != 0 {
		t.Fatalf("headroom = %g with 2x oversubscribed queue, want 0", h)
	}
	if d := snap.Instances[0].DemandTokens; d < 1500 {
		t.Fatalf("demand = %g, want ~2000", d)
	}
}

// TestCenterCompletionLatency: per-instance recordings merge exactly
// into the cluster-wide histograms.
func TestCenterCompletionLatency(t *testing.T) {
	c := New(Config{})
	c.RecordCompletion(1, 1e6, 0.1, 0.01, 1.0, 64)
	c.RecordCompletion(2, 2e6, 0.3, 0.02, 2.0, 64)
	c.RecordCompletion(2, 3e6, 0.2, 0, 1.5, 1) // single-token: no TPOT
	ttft, tpot, e2e := c.LatencyHists()
	if ttft.Count() != 3 || e2e.Count() != 3 {
		t.Fatalf("ttft/e2e counts = %d/%d, want 3/3", ttft.Count(), e2e.Count())
	}
	if tpot.Count() != 2 {
		t.Fatalf("tpot count = %d, want 2 (zero TPOT skipped)", tpot.Count())
	}
	snap := c.Snapshot()
	if snap.Latency["ttft"].Count != 3 {
		t.Fatalf("snapshot latency: %+v", snap.Latency)
	}
}

// TestCenterSLOAlert: a Center with a TTFT SLO emits slo_burn when
// violating completions dominate both windows.
func TestCenterSLOAlert(t *testing.T) {
	c := New(Config{
		SampleIntervalUs: 1e6,
		SLOs: []SLOSpec{{Metric: "ttft", TargetSec: 0.2,
			FastWindowS: 5, SlowWindowS: 10}},
	})
	for i := 0; i < 20; i++ {
		now := float64(i) * 1e6
		c.RecordCompletion(1, now, 0.9, 0.01, 1.2, 32)
		c.Sample(obsAt(now, 0, 100))
	}
	var burn bool
	for _, a := range c.Snapshot().Alerts {
		if strings.HasPrefix(a.Note, "slo_burn ttft") {
			burn = true
		}
	}
	if !burn {
		t.Fatalf("no slo_burn alert in %v", c.Snapshot().Alerts)
	}
	st := c.SLOStatuses()
	if len(st) != 1 || !st[0].Firing {
		t.Fatalf("SLO statuses: %+v", st)
	}
}

// TestAlertRingBounded: the recent-alerts ring retains the newest
// alertRingCap entries in order.
func TestAlertRingBounded(t *testing.T) {
	c := New(Config{})
	for i := 0; i < alertRingCap+50; i++ {
		c.pushAlert(Alert{TimeUs: float64(i)})
	}
	got := c.Snapshot().Alerts
	if len(got) != alertRingCap {
		t.Fatalf("ring holds %d, want %d", len(got), alertRingCap)
	}
	if got[0].TimeUs != 50 || got[len(got)-1].TimeUs != float64(alertRingCap+49) {
		t.Fatalf("ring order: first=%g last=%g", got[0].TimeUs, got[len(got)-1].TimeUs)
	}
}

// TestReplayLifecycle: replaying a synthetic request lifecycle
// reconstructs occupancy, latency and the alert timeline.
func TestReplayLifecycle(t *testing.T) {
	ev := []trace.Event{
		{Kind: trace.KindOpen, TimeUs: 0, Inst: 1, Seq: 1},
		{Kind: trace.KindAdmit, TimeUs: 1000, Inst: 1, Seq: 1},
		{Kind: trace.KindFirstToken, TimeUs: 51000, Inst: 1, Seq: 1},
		{Kind: trace.KindOpen, TimeUs: 2000, Inst: 1, Seq: 2},
		{Kind: trace.KindSwapOut, TimeUs: 60000, Inst: 1, Seq: 1, Bytes: 4096},
		{Kind: trace.KindSwapIn, TimeUs: 90000, Inst: 1, Seq: 1, Bytes: 4096},
		{Kind: trace.KindComplete, TimeUs: 101000, Inst: 1, Seq: 1},
		{Kind: trace.KindReject, TimeUs: 110000, Inst: 1, Seq: 3},
		{Kind: trace.KindAlert, TimeUs: 120000, Inst: 1, Note: "scale_up headroom=0.050"},
	}
	snap := Replay(ev)
	if !snap.Offline {
		t.Fatal("replay snapshot not marked offline")
	}
	if snap.Cluster.Completed != 1 || snap.Cluster.Rejected != 1 {
		t.Fatalf("cluster: %+v", snap.Cluster)
	}
	if len(snap.Instances) != 1 {
		t.Fatalf("instances: %+v", snap.Instances)
	}
	in := snap.Instances[0]
	// request 2 opened but never admitted; request 1 completed
	if in.QueueDepth != 1 || in.Running != 0 || in.Swapped != 0 {
		t.Fatalf("occupancy: %+v", in)
	}
	if in.SwapOutBytes != 4096 || in.SwapInBytes != 4096 || in.HostBytes != 0 {
		t.Fatalf("swap accounting: %+v", in)
	}
	lt := snap.Latency["ttft"]
	if lt.Count != 1 || lt.MaxSec != 0.051 {
		t.Fatalf("ttft: %+v", lt)
	}
	e2e := snap.Latency["e2e"]
	if e2e.Count != 1 || e2e.MaxSec != 0.101 {
		t.Fatalf("e2e: %+v", e2e)
	}
	if len(snap.Alerts) != 1 || snap.Alerts[0].Note != "scale_up headroom=0.050" {
		t.Fatalf("alerts: %+v", snap.Alerts)
	}
}
