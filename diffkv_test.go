package diffkv

import (
	"testing"

	"diffkv/internal/experiments"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func TestPublicEngineQuickstart(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Model:  synth.Llama3_8B,
		Params: DefaultParams("Llama3-8B"),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSequence(192, 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemFrac <= 0 || res.MemFrac >= 1 {
		t.Fatalf("MemFrac = %v", res.MemFrac)
	}
	if res.OutputErr < 0 || res.OutputErr > 1 {
		t.Fatalf("OutputErr = %v", res.OutputErr)
	}
}

// TestPublicModelLookup: every model of the zoo is reachable by its
// display name, the one way the root package names a model.
func TestPublicModelLookup(t *testing.T) {
	if len(synth.Models) < 8 {
		t.Fatalf("model zoo has %d entries", len(synth.Models))
	}
	for _, want := range synth.Models {
		if m, err := ModelByName(want.Name); err != nil || m != want {
			t.Fatalf("ModelByName(%q) = %v, %v", want.Name, m, err)
		}
	}
}

// TestPublicBenchmarkLookup: every benchmark of every suite is
// reachable by its name.
func TestPublicBenchmarkLookup(t *testing.T) {
	for _, suite := range [][]*Benchmark{workload.CoreBenchmarks, workload.ThinkingBenchmarks, workload.LongBench} {
		for _, want := range suite {
			if b, err := BenchmarkByName(want.Name); err != nil || b != want {
				t.Fatalf("BenchmarkByName(%q) = %v, %v", want.Name, b, err)
			}
		}
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := experiments.IDs()
	want := map[string]bool{}
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"tab1", "tab2", "tab3"} {
		want[id] = true
	}
	for _, id := range ids {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("missing experiments: %v", want)
	}
	if _, err := RunExperiment("no-such", ExperimentOpts{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// serveAll drives one engine by hand: it submits every request, then
// steps until no work is left, and returns the engine's Result.
func serveAll(t *testing.T, s *Server, reqs []Request) ServingResult {
	t.Helper()
	for _, r := range reqs {
		s.Submit(r)
	}
	for s.HasWork() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return s.Result()
}

// TestPublicServerSmoke runs the one engine of a scenario without a
// cluster section by hand, through the Stack.Server view.
func TestPublicServerSmoke(t *testing.T) {
	st, err := Scenario{Model: "Llama3-8B", Method: "vLLM", MaxGenLen: 256,
		Workload: WorkloadSpec{Bench: "GSM8K", Requests: 4}, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := serveAll(t, st.Server, st.Requests())
	if res.Completed != 4 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestMethodByNameRejectsUnknownMethod(t *testing.T) {
	if _, err := MethodByName("NoSuchMethod"); err == nil {
		t.Fatal("unknown method must error, not silently map to vLLM")
	}
	for _, m := range Methods() {
		if _, err := MethodByName(m); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

// TestPublicClusterSmoke runs a two-instance prefix-affinity cluster
// built from a Scenario over its shared-prefix Poisson stream.
func TestPublicClusterSmoke(t *testing.T) {
	st, err := Scenario{
		Model:             "Llama3-8B",
		Method:            "vLLM",
		MaxGenLen:         128,
		PrefixCacheGroups: 4,
		Workload: WorkloadSpec{Bench: "MMLU", RatePerSec: 4, Seconds: 10,
			Prefix: &PrefixConfig{Groups: 3, PrefixLen: 512, SharedFrac: 0.8}},
		Cluster: &ClusterSpec{Instances: 2, Routing: "prefix-affinity"},
		Seed:    5,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	reqs := st.Requests()
	if len(reqs) == 0 {
		t.Skip("no arrivals drawn")
	}
	m, err := st.Cluster.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stuck() != 0 {
		t.Fatalf("%d requests stuck", m.Stuck())
	}
	if m.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", m.Completed, len(reqs))
	}
}

func TestDefaultParamsPerFamily(t *testing.T) {
	if DefaultParams("Qwen2.5-7B").DisableLow != true {
		t.Fatal("Qwen2.5-7B must disable the low tier")
	}
	if DefaultParams("QwQ-32B").AlphaH != 3 {
		t.Fatal("QwQ-32B αh should be 3")
	}
}
