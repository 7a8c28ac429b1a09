package diffkv

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// turboKV is the third-party method of the acceptance scenario: a
// DiffKV-style pipeline with a slightly different measured footprint,
// registered at runtime from outside the internal packages.
type turboKV struct{}

func (turboKV) Name() string { return "TurboKV" }

func (turboKV) ServingTraits(memFrac float64) ServingTraits {
	if memFrac <= 0 {
		memFrac = 0.25
	}
	return ServingTraits{
		Name: "TurboKV", ResidentMemFrac: memFrac, AttnBytesFrac: memFrac,
		FrameworkOverhead: 1,
	}
}

func (turboKV) Compression() CompressionSetup {
	return CompressionSetup{UseManager: true, HiFrac: 0.15, LoFrac: 0.3}
}

// arrivalHash is the custom routing policy of the acceptance scenario:
// deterministic request-ID hashing over the routable instances.
type arrivalHash struct{}

func (arrivalHash) Name() string { return "arrival-hash" }

func (arrivalHash) Pick(req Request, snaps []RoutingSnapshot) int {
	return snaps[req.ID%len(snaps)].ID
}

// registerOnce guards the package-global registries across tests (Go
// runs package tests sequentially, but order must not matter).
func registerAcceptanceExtensions(t *testing.T) {
	t.Helper()
	if _, err := MethodByName("TurboKV"); err != nil {
		if err := RegisterMethod(turboKV{}); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, p := range RoutingPolicies() {
		if p == "arrival-hash" {
			found = true
		}
	}
	if !found {
		err := RegisterRoutingPolicy("arrival-hash", func(ClusterServerConfig) (RoutingPolicy, error) {
			return arrivalHash{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDerivedListsNoDrift is the no-hard-coded-list-survives check: a
// runtime registration must surface in Methods, RoutingPolicies and
// PreemptPolicies, and the builtin prefixes must match the paper's
// reporting order — both properties only hold if every list is derived
// from its registry.
func TestDerivedListsNoDrift(t *testing.T) {
	if err := RegisterMethod(probeMethod{"probe-method"}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterRoutingPolicy("probe-route", func(ClusterServerConfig) (RoutingPolicy, error) {
		return arrivalHash{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPreemptPolicy("probe-preempt", func() PreemptRecoveryPolicy {
		return probePreempt{}
	}); err != nil {
		t.Fatal(err)
	}

	wantPrefix := func(got []string, prefix []string, probe string) {
		t.Helper()
		for i, w := range prefix {
			if i >= len(got) || got[i] != w {
				t.Fatalf("builtin order lost: got %v, want prefix %v", got, prefix)
			}
		}
		for _, g := range got {
			if g == probe {
				return
			}
		}
		t.Fatalf("runtime registration %q missing from derived list %v", probe, got)
	}
	wantPrefix(Methods(), []string{"vLLM", "Quest", "SnapKV", "Atom", "KIVI", "DiffKV"}, "probe-method")
	wantPrefix(RoutingPolicies(), []string{"round-robin", "least-loaded", "prefix-affinity"}, "probe-route")
	wantPrefix(PreemptPolicies(), []string{"recompute", "swap", "compress-swap"}, "probe-preempt")
}

type probeMethod struct{ name string }

func (p probeMethod) Name() string { return p.name }
func (p probeMethod) ServingTraits(float64) ServingTraits {
	return ServingTraits{Name: p.name, ResidentMemFrac: 1, AttnBytesFrac: 1, FrameworkOverhead: 1}
}

type probePreempt struct{}

func (probePreempt) Name() string { return "probe-preempt" }
func (probePreempt) PickVictim(c []PreemptVictim) int {
	return len(c) - 1
}
func (probePreempt) Recovery() PreemptRecovery { return RecoverRecompute }

// TestRegistryEdgeCases pins duplicate-registration errors, unknown-name
// error text (it must name the registry and list known entries), and
// registration visibility through MethodByName.
func TestRegistryEdgeCases(t *testing.T) {
	if err := RegisterMethod(probeMethod{"edge-method"}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterMethod(probeMethod{"edge-method"}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate method registration error = %v", err)
	}
	if err := RegisterMethod(probeMethod{""}); err == nil {
		t.Fatal("empty method name must error")
	}
	if err := RegisterMethod(nil); err == nil {
		t.Fatal("nil method must error")
	}

	m, err := MethodByName("edge-method")
	if err != nil {
		t.Fatalf("registration not visible from MethodByName: %v", err)
	}
	if m.Name() != "edge-method" {
		t.Fatalf("wrong method returned: %s", m.Name())
	}
	if tr := m.ServingTraits(0); tr.Name != "edge-method" {
		t.Fatalf("ServingTraits over a runtime registration: %v", tr)
	}

	_, err = MethodByName("no-such-method")
	if err == nil {
		t.Fatal("unknown method must error")
	}
	for _, want := range []string{"unknown serving method", `"no-such-method"`, "vLLM", "DiffKV"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-method error %q must contain %q", err, want)
		}
	}

	if err := RegisterRoutingPolicy("round-robin", func(ClusterServerConfig) (RoutingPolicy, error) {
		return arrivalHash{}, nil
	}); err == nil {
		t.Fatal("duplicate routing policy must error")
	}
	if err := RegisterPreemptPolicy("swap", func() PreemptRecoveryPolicy { return probePreempt{} }); err == nil {
		t.Fatal("duplicate preemption policy must error")
	}
	if _, err := NewClusterServer(ClusterServerConfig{Instances: 1, Policy: "no-such-route"}); err == nil ||
		!strings.Contains(err.Error(), "unknown routing policy") {
		t.Fatalf("unknown routing policy error = %v", err)
	}
}

// TestScenarioSessionAcceptance is the PR's acceptance path: a
// third-party method (RegisterMethod) and a runtime-registered routing
// policy run end-to-end through a Scenario-built cluster, driven by
// Session handles with one mid-flight cancellation.
func TestScenarioSessionAcceptance(t *testing.T) {
	registerAcceptanceExtensions(t)

	sc := Scenario{
		Name:      "acceptance",
		Model:     "Llama3-8B",
		Method:    "TurboKV",
		MemFrac:   0.3,
		MaxGenLen: 64,
		Workload:  WorkloadSpec{Bench: "GSM8K", Requests: 8},
		Cluster:   &ClusterSpec{Instances: 2, Routing: "arrival-hash"},
		Seed:      23,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Server != nil {
		t.Fatal("cluster spec must build a cluster stack")
	}
	if st.Cluster.Policy() != "arrival-hash" {
		t.Fatalf("cluster policy = %s", st.Cluster.Policy())
	}

	tokens := map[int]int{}
	var sessions []*Session
	var victim *Session
	for i, r := range st.Requests() {
		s, err := st.Cluster.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		id := s.ID()
		s.OnToken(func(u TokenUpdate) {
			if !u.First {
				tokens[id] = u.Generated
			}
		})
		if i == 3 {
			victim = s
			s.OnToken(func(u TokenUpdate) {
				if !u.First {
					tokens[id] = u.Generated
				}
				if u.Generated == 10 {
					s.Cancel() // mid-flight cancellation from the stream
				}
			})
		}
		sessions = append(sessions, s)
	}
	if err := st.Cluster.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	m := st.Cluster.Metrics()
	if m.Completed != 7 || m.Cancelled != 1 || m.Stuck() != 0 {
		t.Fatalf("completed %d cancelled %d stuck %d", m.Completed, m.Cancelled, m.Stuck())
	}
	if _, err := victim.Completion(); !errors.Is(err, ErrSessionCancelled) {
		t.Fatalf("victim error = %v", err)
	}
	if tokens[victim.ID()] != 10 {
		t.Fatalf("victim streamed %d tokens after cancel at 10", tokens[victim.ID()])
	}
	for _, s := range sessions {
		if s == victim {
			continue
		}
		cp, err := s.Completion()
		if err != nil {
			t.Fatalf("session %d: %v", s.ID(), err)
		}
		if tokens[s.ID()] != cp.Req.GenLen {
			t.Fatalf("session %d streamed %d of %d tokens", s.ID(), tokens[s.ID()], cp.Req.GenLen)
		}
	}
	// the custom policy actually routed: both instances saw work
	for i, is := range m.PerInstance {
		if is.Dispatched == 0 {
			t.Fatalf("instance %d got no requests from arrival-hash routing", i)
		}
	}
}
