package diffkv

import (
	"reflect"
	"strings"
	"testing"

	"diffkv/internal/faults"
	"diffkv/internal/trace"
)

// alertTimeline extracts the KindAlert events from a collector in
// emission order as (time, inst, note) triples.
func alertTimeline(col *TraceCollector) []trace.Event {
	var out []trace.Event
	for _, e := range col.Events() {
		if e.Kind == trace.KindAlert {
			out = append(out, e)
		}
	}
	return out
}

// overloadScenario drives a 2-instance cluster well past capacity: a
// 0.98 memory reserve leaves a small KV pool that fills within
// seconds, while the 128-deep admission queue absorbs the backlog for a
// while before shedding — so saturation (a memory signal) leads
// rejection (a queue signal) by design.
func overloadScenario() Scenario {
	return Scenario{
		Model: "Llama3-8B", Method: "DiffKV", MemFrac: 0.3,
		MaxGenLen: 512, MemoryReserve: 0.98,
		Workload: WorkloadSpec{Bench: "MATH", RatePerSec: 30, Seconds: 20},
		Cluster:  &ClusterSpec{Instances: 2, Routing: "least-loaded", MaxQueueDepth: 128},
		Observability: &ObservabilitySpec{
			SampleIntervalMs: 250,
			Saturation:       &SaturationConfig{UpHold: 2, CooldownUs: 5e6},
		},
		Seed: 23,
	}
}

// TestOverloadScaleUpBeforeGoodputDegrades pins the saturation
// analyzer's early-warning property: on an overload ramp the first
// scale_up advisory fires before the cluster starts shedding requests
// (the first reject is when goodput visibly degrades). An advisory
// that only fires after rejects is an autoscaling signal that arrives
// too late to act on.
func TestOverloadScaleUpBeforeGoodputDegrades(t *testing.T) {
	sc := overloadScenario()
	col := NewTraceCollector(1 << 18)
	sc.Tracer = col
	st, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Telemetry == nil {
		t.Fatal("observability section did not create a telemetry center")
	}
	m, err := st.Cluster.Run(st.Requests())
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected == 0 {
		t.Fatalf("overload scenario never rejected (completed %d) — not an overload", m.Completed)
	}

	firstScaleUp := -1.0
	for _, e := range alertTimeline(col) {
		if strings.HasPrefix(e.Note, "scale_up") {
			firstScaleUp = e.TimeUs
			break
		}
	}
	if firstScaleUp < 0 {
		t.Fatal("overload ramp emitted no scale_up advisory")
	}
	firstReject := -1.0
	for _, e := range col.Events() {
		if e.Kind == trace.KindReject {
			firstReject = e.TimeUs
			break
		}
	}
	if firstReject < 0 {
		t.Fatal("no reject event despite Rejected > 0")
	}
	if firstScaleUp >= firstReject {
		t.Fatalf("scale_up at %.0fus fired after the first reject at %.0fus — advisory arrived too late",
			firstScaleUp, firstReject)
	}

	// the snapshot agrees with the trace: alerts recorded, headroom gone
	snap := st.Telemetry.Snapshot()
	if snap.Cluster.Rejected != int64(m.Rejected) {
		t.Fatalf("snapshot rejected %d != metrics %d", snap.Cluster.Rejected, m.Rejected)
	}
	if len(snap.Alerts) == 0 {
		t.Fatal("telemetry center retained no alerts")
	}
}

// TestOverloadAlertTimelineDeterministic: the same seeded scenario
// produces a bit-identical alert timeline — times, instances, and
// rendered notes — across independent builds. Telemetry sampling rides
// the simulated clock, so observation can never perturb or race the
// thing it observes.
func TestOverloadAlertTimelineDeterministic(t *testing.T) {
	run := func() []trace.Event {
		sc := overloadScenario()
		col := NewTraceCollector(1 << 18)
		sc.Tracer = col
		st, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Cluster.Run(st.Requests()); err != nil {
			t.Fatal(err)
		}
		return alertTimeline(col)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no alerts to compare")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("alert timelines diverged across identical runs:\n run1: %v\n run2: %v", a, b)
	}
}

// TestChaosSLOBurnBeforeBrownout pins the burn-rate alert as a leading
// indicator under fault injection: when crashes concentrate load on
// survivors, the TTFT SLO starts burning before queue pressure forces
// the engines into brownout admission (all-low tier). An operator
// watching burn rates gets the page while quality is still intact.
func TestChaosSLOBurnBeforeBrownout(t *testing.T) {
	sc := Scenario{
		Model: "Llama3-8B", Method: "DiffKV", MemFrac: 0.3,
		MaxGenLen: 1024, MemoryReserve: 0.98,
		Preemption: "swap", HostMemoryGB: 2,
		BrownoutQueueDepth: 24,
		Workload:           WorkloadSpec{Bench: "MATH", RatePerSec: 10, Seconds: 15},
		Cluster:            &ClusterSpec{Instances: 3, Routing: "least-loaded", MaxQueueDepth: 128},
		Faults: &FaultPlan{
			Crashes: []faults.Crash{
				{Inst: 1, AtSec: 2, DownSec: 6},
				{Inst: 2, AtSec: 3, DownSec: 5},
			},
		},
		Observability: &ObservabilitySpec{
			SampleIntervalMs: 100,
			SLOs: []SLOSpec{{Metric: "ttft", TargetSec: 0.5,
				FastWindowS: 2, SlowWindowS: 4, BurnThreshold: 2}},
		},
		Seed: 17,
	}
	col := NewTraceCollector(1 << 18)
	sc.Tracer = col
	st, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Cluster.Run(st.Requests()); err != nil {
		t.Fatal(err)
	}

	firstBurn := -1.0
	for _, e := range alertTimeline(col) {
		if strings.HasPrefix(e.Note, "slo_burn ttft") {
			firstBurn = e.TimeUs
			break
		}
	}
	if firstBurn < 0 {
		t.Fatal("chaos run never fired the TTFT burn-rate alert")
	}
	firstBrownout := -1.0
	for _, e := range col.Events() {
		if e.Kind == trace.KindAdmit && e.Note == "brownout" {
			firstBrownout = e.TimeUs
			break
		}
	}
	if firstBrownout < 0 {
		t.Fatal("chaos run never reached brownout admission — queue pressure too low to pin ordering")
	}
	if firstBurn >= firstBrownout {
		t.Fatalf("slo_burn at %.0fus fired after brownout onset at %.0fus — not a leading indicator",
			firstBurn, firstBrownout)
	}
}
