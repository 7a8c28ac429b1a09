package diffkv

import (
	"reflect"
	"testing"

	"diffkv/internal/trace"
)

// eventMultiset is a tracer that counts the events two drivers of one
// engine must both produce: dispatch events (the router's) and alert
// events (the telemetry center's, which only the cluster feeds) are
// dropped, and the instance tag is cleared.
type eventMultiset map[trace.Event]int

func (m eventMultiset) Emit(ev trace.Event) {
	if ev.Kind == trace.KindDispatch || ev.Kind == trace.KindAlert {
		return
	}
	ev.Inst = 0
	m[ev]++
}

// loadSpec loads a checked-in scenario file, at a quarter of its size
// when quarter is set: a closed batch by its request count, an open loop
// by its horizon.
func loadSpec(t *testing.T, path string, quarter bool) Scenario {
	t.Helper()
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case !quarter:
	case sc.Workload.RatePerSec > 0:
		sc.Workload.Seconds /= 4
	default:
		sc.Workload.Requests = max(1, sc.Workload.Requests/4)
	}
	return *sc
}

// TestOneInstanceClusterMatchesServer: a spec without a cluster section
// builds a one-instance cluster, and driving that cluster (dispatch at
// each arrival) is the same run as driving its engine batch-style
// (submit everything, then drain): equal Result, and equal trace events
// once the router's own events are set aside.
func TestOneInstanceClusterMatchesServer(t *testing.T) {
	specs := map[string]Scenario{
		"decode_heavy":  loadSpec(t, "benchmark/workloads/decode_heavy.json", true),
		"prefill_churn": loadSpec(t, "benchmark/workloads/prefill_churn.json", true),
		"gateway":       loadSpec(t, "testdata/scenario_gateway.json", false),
		"trace": {Model: "Llama3-8B", Method: "vLLM", MaxGenLen: 64, PrefixCacheGroups: 2,
			Workload: WorkloadSpec{Trace: []TraceRequest{
				{ID: 3, ArrivalSec: 0.2, PromptTokens: 512, GenTokens: 32, PrefixGroup: 1, PrefixLen: 256},
				{ID: 1, PromptTokens: 256, GenTokens: 48},
				{ID: 2, PromptTokens: 512, GenTokens: 16, PrefixGroup: 1, PrefixLen: 256},
				{ID: 4, ArrivalSec: 30, PromptTokens: 128, GenTokens: 8},
			}}},
		"kivi-32b-2gpu": {Model: "Qwen2.5-32B", Method: "KIVI", GPUs: 2, MaxGenLen: 512,
			Workload: WorkloadSpec{Bench: "MMLU", RatePerSec: 2, Seconds: 60}, Seed: 11},
		"oversubscribed-recompute": {Model: "Llama3-8B", Method: "DiffKV", MemFrac: 0.3,
			MaxGenLen: 2048, MemoryReserve: 0.985, Preemption: "recompute",
			Workload: WorkloadSpec{Bench: "MATH", Requests: 24, CoT: true}, Seed: 7},
		"brownout-prefix": {Model: "Llama3-8B", Method: "DiffKV", MemFrac: 0.3,
			MaxGenLen: 1024, MemoryReserve: 0.97, PrefixCacheGroups: 4, BrownoutQueueDepth: 4,
			Workload: WorkloadSpec{Bench: "MATH", RatePerSec: 6, Seconds: 30,
				Prefix: &PrefixConfig{Groups: 4, PrefixLen: 512, SharedFrac: 0.8}},
			Seed: 13},
	}
	for name, sc := range specs {
		t.Run(name, func(t *testing.T) {
			if sc.Cluster != nil {
				t.Fatal("the equivalence holds for specs without a cluster section")
			}
			build := func(tr eventMultiset) *Stack {
				sc.Tracer = tr
				st, err := sc.Build()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			batchEvents, clusterEvents := eventMultiset{}, eventMultiset{}
			batch, clustered := build(batchEvents), build(clusterEvents)
			reqs := batch.Requests()

			want := serveAll(t, batch.Server, reqs)
			m, err := clustered.Cluster.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed != len(reqs) || want.Completed != len(reqs) {
				t.Fatalf("completed %d (cluster) and %d (server) of %d", m.Completed, want.Completed, len(reqs))
			}
			if got := clustered.Cluster.Engines()[0].Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("one-instance cluster result differs from the batch-driven engine:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(clusterEvents, batchEvents) {
				t.Fatalf("trace events differ: %d distinct (cluster) vs %d (server)", len(clusterEvents), len(batchEvents))
			}
			switch name {
			case "oversubscribed-recompute":
				if want.Preemptions == 0 {
					t.Fatal("spec no longer preempts")
				}
			case "brownout-prefix":
				if batch.Server.BrownoutAdmits() == 0 {
					t.Fatal("spec no longer reaches brownout")
				}
			}
		})
	}
}
