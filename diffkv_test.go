package diffkv

import (
	"testing"

	"diffkv/internal/experiments"
	"diffkv/internal/workload"
)

func TestPublicEngineQuickstart(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Model:  Llama3_8B,
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

func TestPublicModelLookup(t *testing.T) {
	m, err := ModelByName("QwQ-32B")
	if err != nil || m != QwQ_32B {
		t.Fatal("lookup failed")
	}
	if len(Models) < 8 {
		t.Fatalf("model zoo has %d entries", len(Models))
	}
}

func TestPublicBenchmarkLookup(t *testing.T) {
	b, err := BenchmarkByName("AIME24")
	if err != nil || b != BenchAIME24 {
		t.Fatal("benchmark lookup failed")
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

// vllmTraits resolves the vLLM baseline's serving traits through the
// method registry.
func vllmTraits(t *testing.T) ServingTraits {
	t.Helper()
	m, err := MethodByName("vLLM")
	if err != nil {
		t.Fatal(err)
	}
	return m.ServingTraits(0)
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

func TestPublicClusterSmoke(t *testing.T) {
	traits := vllmTraits(t)
	cfg := ClusterServerConfig{
		Instances: 2,
		Policy:    "prefix-affinity",
		Seed:      5,
	}
	cfg.Engine.Model = Llama3_8B
	cfg.Engine.Cluster = NewCluster(L40(), 1)
	cfg.Engine.Traits = traits
	cfg.Engine.MaxGenLen = 128
	cfg.Engine.PrefixCacheGroups = 4
	cs, err := NewClusterServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewRequestGen(BenchMMLU, 128, 5).
		PoissonShared(4, 10, PrefixConfig{Groups: 3, PrefixLen: 512, SharedFrac: 0.8})
	if len(reqs) == 0 {
		t.Skip("no arrivals drawn")
	}
	m, err := cs.Run(reqs)
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
