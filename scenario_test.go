package diffkv

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"diffkv/internal/cluster"
	"diffkv/internal/faults"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenario exercises every serializable field of the spec.
var goldenScenario = Scenario{
	Name:              "cluster-swap-demo",
	Model:             "Llama3-8B",
	Method:            "DiffKV",
	MemFrac:           0.3,
	Precision:         &PrecisionSpec{Hi: "K8V4", Lo: "K4V2"},
	Device:            "L40",
	GPUs:              1,
	MaxGenLen:         2048,
	MemoryReserve:     0.9,
	PrefixCacheGroups: 8,
	Preemption:        "swap",
	HostMemoryGB:      4,
	Workload: WorkloadSpec{
		Bench:      "MATH",
		RatePerSec: 8,
		Seconds:    30,
		Prefix:     &PrefixConfig{Groups: 4, PrefixLen: 512, SharedFrac: 0.8},
	},
	BrownoutQueueDepth: 32,
	Cluster: &ClusterSpec{
		Instances:     2,
		Routing:       "prefix-affinity",
		MaxQueueDepth: 64,
		TTFTSLOSec:    2,
		TPOTSLOSec:    0.1,
	},
	Faults: &FaultPlan{
		Crashes:       []faults.Crash{{Inst: 1, AtSec: 10, DownSec: 5}},
		Slowdowns:     []faults.Slowdown{{Inst: 2, AtSec: 4, DurSec: 6, Factor: 2.5}},
		PCIeErrorRate: 0.01,
		RetryBudget:   3,
		RetryBaseMs:   50,
	},
	Gateway: &GatewaySpec{
		Listen:           "127.0.0.1:8080",
		TimeScale:        1,
		DefaultMaxTokens: 256,
		DrainTimeoutSec:  30,
	},
	Observability: &ObservabilitySpec{
		TraceEvents:  32768,
		PerfettoPath: "trace.json",
		Debug:        true,
	},
	Seed: 42,
}

// TestScenarioGoldenRoundTrip pins the JSON wire format: the canonical
// spec marshals byte-identically to the checked-in golden file, and the
// golden file parses back to the identical value — so specs in the wild
// survive upgrades, or the golden diff makes the break visible in CI.
func TestScenarioGoldenRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "scenario_golden.json")
	got, err := json.MarshalIndent(&goldenScenario, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run ScenarioGolden -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("scenario JSON drifted from golden:\n got: %s\nwant: %s", got, want)
	}

	parsed, err := ParseScenario(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*parsed, goldenScenario) {
		t.Fatalf("golden did not round-trip:\n got %+v\nwant %+v", *parsed, goldenScenario)
	}
	if err := parsed.Validate(); err != nil {
		t.Fatalf("golden scenario invalid: %v", err)
	}
}

// goldenDisaggScenario pins the disaggregation section's wire format
// separately: disaggregation excludes faults, so it cannot ride in
// goldenScenario.
var goldenDisaggScenario = Scenario{
	Name:      "disagg-demo",
	Model:     "Llama3-8B",
	Method:    "DiffKV",
	MemFrac:   0.3,
	MaxGenLen: 256,
	Workload: WorkloadSpec{
		Bench:      "MMLU",
		RatePerSec: 12,
		Seconds:    20,
	},
	Cluster: &ClusterSpec{
		Instances:  4,
		TTFTSLOSec: 2,
		TPOTSLOSec: 0.1,
	},
	Disaggregation: &DisaggPools{PrefillInstances: 2, DecodeInstances: 2},
	Seed:           7,
}

// TestScenarioDisaggGoldenRoundTrip pins the disaggregation JSON wire
// format the same way TestScenarioGoldenRoundTrip pins the rest of the
// spec, and checks the unset-routing default resolves to disagg-aware.
func TestScenarioDisaggGoldenRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "scenario_disagg_golden.json")
	got, err := json.MarshalIndent(&goldenDisaggScenario, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run GoldenRoundTrip -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("disagg scenario JSON drifted from golden:\n got: %s\nwant: %s", got, want)
	}

	parsed, err := ParseScenario(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*parsed, goldenDisaggScenario) {
		t.Fatalf("golden did not round-trip:\n got %+v\nwant %+v", *parsed, goldenDisaggScenario)
	}
	st, err := parsed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scenario.Cluster.Routing != "disagg-aware" {
		t.Fatalf("disaggregation with unset routing must default to disagg-aware, got %q",
			st.Scenario.Cluster.Routing)
	}
}

// TestScenarioStrictParsing: typos must fail loudly, not select defaults.
func TestScenarioStrictParsing(t *testing.T) {
	_, err := ParseScenario([]byte(`{"model": "Llama3-8B", "method": "vLLM",
		"workload": {"bench": "MATH"}, "preemptoin": "swap"}`))
	if err == nil || !strings.Contains(err.Error(), "preemptoin") {
		t.Fatalf("unknown field must be rejected by name, got %v", err)
	}
}

// TestScenarioErrorFieldPaths: strict-parse failures name the dotted
// JSON path of the offending field, however deep it nests.
func TestScenarioErrorFieldPaths(t *testing.T) {
	for _, tc := range []struct {
		name, spec, wantPath string
	}{
		{"nested unknown",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"bench": "MATH", "prefix": {"grops": 4}}}`,
			`"workload.prefix.grops"`},
		{"trace element unknown",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"trace": [
			    {"id": 1, "prompt_tokens": 64, "gen_tokens": 8},
			    {"id": 2, "prompt_tokens": 64, "gen_tokn": 8}]}}`,
			`"workload.trace[1].gen_tokn"`},
		{"cluster unknown",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"bench": "MATH"},
			  "cluster": {"instances": 2, "ruoting": "round-robin"}}`,
			`"cluster.ruoting"`},
		{"type mismatch path",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"bench": "MATH", "rate_per_sec": "fast"}}`,
			`"workload.rate_per_sec"`},
		{"observability unknown",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"bench": "MATH"},
			  "observability": {"debug": true, "trace_evnts": 100}}`,
			`"observability.trace_evnts"`},
		{"disaggregation unknown",
			`{"model": "Llama3-8B", "method": "DiffKV",
			  "workload": {"bench": "MATH"},
			  "cluster": {"instances": 4},
			  "disaggregation": {"prefil_pool": 2, "decode_pool": 2}}`,
			`"disaggregation.prefil_pool"`},
		{"faults seed is not a spec key",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"bench": "MATH"},
			  "cluster": {"instances": 2},
			  "faults": {"seed": 5}}`,
			`"faults.seed"`},
		{"crash field is named instance",
			`{"model": "Llama3-8B", "method": "vLLM",
			  "workload": {"bench": "MATH"},
			  "cluster": {"instances": 2},
			  "faults": {"crashes": [{"inst": 1, "at_sec": 1}]}}`,
			`"faults.crashes[0].inst"`},
	} {
		_, err := ParseScenario([]byte(tc.spec))
		if err == nil || !strings.Contains(err.Error(), tc.wantPath) {
			t.Fatalf("%s: error must carry the field path %s, got: %v", tc.name, tc.wantPath, err)
		}
	}
}

// TestScenarioTraceWorkload covers the hand-authored request-list
// workload: verbatim replay in arrival order, no benchmark needed, and
// Build-time rejection of malformed traces — duplicate IDs above all,
// and a negative prefix_len, which the prefix-affinity router would
// turn into a negative block count and panic on.
func TestScenarioTraceWorkload(t *testing.T) {
	sc := Scenario{Model: "Llama3-8B", Method: "vLLM", MaxGenLen: 64,
		Workload: WorkloadSpec{Trace: []TraceRequest{
			{ID: 2, ArrivalSec: 0.5, PromptTokens: 128, GenTokens: 16},
			{ID: 1, PromptTokens: 256, GenTokens: 8},
		}}}
	st, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Benchmark != nil {
		t.Fatal("trace workloads carry their own shapes; Benchmark must be nil")
	}
	reqs := st.Requests()
	if len(reqs) != 2 || reqs[0].ID != 1 || reqs[1].ID != 2 {
		t.Fatalf("trace not replayed in arrival order: %+v", reqs)
	}
	if reqs[1].ArrivalUs != 0.5e6 || reqs[0].PromptLen != 256 {
		t.Fatalf("trace fields mangled: %+v", reqs)
	}
	res := serveAll(t, st.Server, reqs)
	if res.Completed != 2 {
		t.Fatalf("completed %d", res.Completed)
	}

	for name, mut := range map[string]func(*Scenario){
		"duplicate id": func(s *Scenario) { s.Workload.Trace[1].ID = 2 },
		"zero id":      func(s *Scenario) { s.Workload.Trace[0].ID = 0 },
		"no tokens":    func(s *Scenario) { s.Workload.Trace[0].GenTokens = 0 },
		"neg arrival":  func(s *Scenario) { s.Workload.Trace[0].ArrivalSec = -1 },
		"long prefix":  func(s *Scenario) { s.Workload.Trace[0].PrefixLen = 4096 },
		"neg prefix":   func(s *Scenario) { s.Workload.Trace[0].PrefixLen = -128 },
		"trace+bench":  func(s *Scenario) { s.Workload.Bench = "MATH" },
		"trace+rate":   func(s *Scenario) { s.Workload.RatePerSec = 2 },
		"trace+secs":   func(s *Scenario) { s.Workload.Seconds = 30 },
	} {
		bad := sc
		bad.Workload.Trace = append([]TraceRequest(nil), sc.Workload.Trace...)
		mut(&bad)
		if _, err := bad.Build(); err == nil {
			t.Fatalf("%s: invalid trace passed Build", name)
		}
	}
}

// TestScenarioValidation sweeps the name-resolution failure modes.
func TestScenarioValidation(t *testing.T) {
	base := Scenario{Model: "Llama3-8B", Method: "vLLM", Workload: WorkloadSpec{Bench: "MATH"}}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Scenario){
		"model":     func(s *Scenario) { s.Model = "GPT-5" },
		"method":    func(s *Scenario) { s.Method = "NoSuch" },
		"bench":     func(s *Scenario) { s.Workload.Bench = "NoSuch" },
		"device":    func(s *Scenario) { s.Device = "H100" },
		"precision": func(s *Scenario) { s.Precision = &PrecisionSpec{Hi: "K8V4"} }, // vLLM has no pipeline
		"routing": func(s *Scenario) {
			s.Cluster = &ClusterSpec{Instances: 2, Routing: "NoSuch"}
		},
		"preempt":      func(s *Scenario) { s.Preemption = "NoSuch" },
		"reserve-one":  func(s *Scenario) { s.MemoryReserve = 1 },
		"reserve-over": func(s *Scenario) { s.MemoryReserve = 1.5 },
		"badprec":      func(s *Scenario) { s.Method = "DiffKV"; s.Precision = &PrecisionSpec{Hi: "K7V3"} },
		"cot-rate": func(s *Scenario) {
			s.Workload.CoT = true
			s.Workload.RatePerSec = 4
		},
		"cot-prefix": func(s *Scenario) {
			s.Workload.CoT = true
			s.Workload.Prefix = &PrefixConfig{Groups: 2, PrefixLen: 128, SharedFrac: 0.5}
		},
		"faults-no-cluster": func(s *Scenario) {
			s.Faults = &FaultPlan{Crashes: []faults.Crash{{Inst: 1, AtSec: 1}}}
		},
		"faults-bad-instance": func(s *Scenario) {
			s.Cluster = &ClusterSpec{Instances: 2}
			s.Faults = &FaultPlan{Crashes: []faults.Crash{{Inst: 5, AtSec: 1}}}
		},
		"faults-bad-error-rate": func(s *Scenario) {
			s.Cluster = &ClusterSpec{Instances: 2}
			s.Faults = &FaultPlan{PCIeErrorRate: 1.5}
		},
		"disagg-no-cluster": func(s *Scenario) {
			s.Disaggregation = &DisaggPools{PrefillInstances: 1, DecodeInstances: 1}
		},
		"disagg-with-faults": func(s *Scenario) {
			s.Cluster = &ClusterSpec{Instances: 4}
			s.Disaggregation = &DisaggPools{PrefillInstances: 2, DecodeInstances: 2}
			s.Faults = &FaultPlan{Crashes: []faults.Crash{{Inst: 1, AtSec: 1}}}
		},
		"disagg-pool-overflow": func(s *Scenario) {
			s.Cluster = &ClusterSpec{Instances: 2}
			s.Disaggregation = &DisaggPools{PrefillInstances: 2, DecodeInstances: 2}
		},
	} {
		sc := base
		mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Fatalf("%s: invalid spec passed validation", name)
		}
	}
}

// TestScenarioBuildShapes checks that a spec without a cluster section
// builds a one-engine cluster whose Server view is that engine, that
// each Build returns a fresh stack, and that workload sampling is
// deterministic.
func TestScenarioBuildShapes(t *testing.T) {
	single := Scenario{Model: "Llama3-8B", Method: "vLLM", MaxGenLen: 64,
		Workload: WorkloadSpec{Bench: "GSM8K", Requests: 4}, Seed: 5}
	st, err := single.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || len(st.Cluster.Engines()) != 1 {
		t.Fatal("a spec without a cluster section must build a one-engine cluster")
	}
	if st.Server != st.Cluster.Engines()[0] {
		t.Fatal("Server must be the one-engine cluster's engine")
	}
	r1, r2 := st.Requests(), st.Requests()
	if len(r1) != 4 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("workload sampling not deterministic: %v vs %v", r1, r2)
	}
	m, err := st.Cluster.Run(r1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 4 {
		t.Fatalf("completed %d", m.Completed)
	}
	// a spec without an observability section still owns a telemetry
	// center, fed by the cluster
	if st.Telemetry == nil {
		t.Fatal("Build must always attach a telemetry center")
	}
	if l := st.Telemetry.LatencyHists(); l.E2E.Count() != 4 || l.Decode.Count() != 4 {
		t.Fatalf("telemetry center recorded %d e2e / %d decode latencies, want 4", l.E2E.Count(), l.Decode.Count())
	}

	// a second Build is a fresh stack (servers serve one run)
	st2, err := single.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cluster == st.Cluster || st2.Server == st.Server {
		t.Fatal("Build must return fresh stacks")
	}

	// precision override reaches the manager
	prec := Scenario{Model: "Llama3-8B", Method: "DiffKV", MaxGenLen: 64,
		Precision: &PrecisionSpec{Hi: "K8V8", Lo: "K4V4"},
		Workload:  WorkloadSpec{Bench: "GSM8K", Requests: 2}, Seed: 5}
	if _, err := prec.Build(); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioFaultsDeterministic: a chaos scenario is an experiment
// like any other — building and running the same spec twice reproduces
// the identical metrics, crashes included, and every dispatched request
// reaches a terminal state. The scenario seed governs the plan: a Seed
// set on the plan itself changes nothing, and Build leaves the caller's
// plan as it was.
func TestScenarioFaultsDeterministic(t *testing.T) {
	sc := Scenario{Model: "Llama3-8B", Method: "vLLM", MaxGenLen: 256,
		Workload: WorkloadSpec{Bench: "MATH", Requests: 16},
		Cluster:  &ClusterSpec{Instances: 2, Routing: "least-loaded"},
		Faults: &FaultPlan{
			Crashes: []faults.Crash{{Inst: 1, AtSec: 1, DownSec: 2}},
		},
		Seed: 9,
	}
	run := func(planSeed uint64) cluster.Metrics {
		sc, plan := sc, *sc.Faults
		plan.Seed = planSeed
		sc.Faults = &plan
		st, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Seed != planSeed {
			t.Fatalf("Build rewrote the caller's plan seed %d to %d", planSeed, plan.Seed)
		}
		m, err := st.Cluster.Run(st.Requests())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(0), run(99)
	if a.Crashes != 1 || a.Restarts != 1 {
		t.Fatalf("crashes/restarts %d/%d, want 1/1", a.Crashes, a.Restarts)
	}
	if a.Stuck() != 0 {
		t.Fatalf("liveness violated: %d requests unaccounted", a.Stuck())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos scenario not reproducible:\n got %+v\nand %+v", a, b)
	}
}

// FuzzParseScenario feeds ParseScenario arbitrary bytes, seeded from
// every checked-in scenario spec. The strict parser must never panic,
// and a spec it accepts must survive a marshal → parse round trip
// unchanged: what a tool dumps (-dump-scenario) is what it loads back.
// Equality is on the marshalled form, the one view in which an explicit
// empty list and an absent one (omitempty drops both) are the same spec.
func FuzzParseScenario(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "scenario*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no scenario seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"faults":{"crashes":[]},"workload":{"trace":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("parsed scenario does not marshal: %v", err)
		}
		back, err := ParseScenario(out)
		if err != nil {
			t.Fatalf("re-marshalled scenario does not parse: %v\n%s", err, out)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-parsed scenario does not marshal: %v", err)
		}
		if string(again) != string(out) {
			t.Fatalf("round trip changed the scenario:\n got %s\nwant %s", again, out)
		}
	})
}
