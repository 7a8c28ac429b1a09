package telemetry

import (
	"strings"
	"testing"
)

func TestSLOSpecValidate(t *testing.T) {
	bad := []SLOSpec{
		{Metric: "latency"},                  // unknown metric
		{Metric: "ttft"},                     // missing target
		{Metric: "goodput"},                  // missing floor
		{Metric: "e2e", TargetSec: -1},       // non-positive target
		{Metric: "goodput", BudgetFrac: 0.1}, // still no floor
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted a bad spec", s)
		}
	}
	good := []SLOSpec{
		{Metric: "ttft", TargetSec: 0.3},
		{Metric: "TPOT", TargetSec: 0.05}, // case-insensitive
		{Metric: " e2e ", TargetSec: 10},  // whitespace-tolerant
		{Metric: "goodput", FloorTokensPerSec: 100},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate(%+v): %v", s, err)
		}
	}
}

func TestSLOSpecDefaults(t *testing.T) {
	s := SLOSpec{Metric: "TTFT", TargetSec: 0.3}.withDefaults()
	if s.Metric != "ttft" || s.Pctl != 95 || s.BurnThreshold != 2 ||
		s.FastWindowS != 60 || s.SlowWindowS != 300 {
		t.Fatalf("defaults: %+v", s)
	}
	// slow window can never undercut fast
	s = SLOSpec{Metric: "ttft", TargetSec: 0.3, FastWindowS: 100, SlowWindowS: 10}.withDefaults()
	if s.SlowWindowS != 100 {
		t.Fatalf("SlowWindowS = %g, want clamped to fast 100", s.SlowWindowS)
	}
}

// TestLatencyBurnWindows: the burn rate is violations-over-budget
// within each window, and an idle window burns 0.
func TestLatencyBurnWindows(t *testing.T) {
	spec := SLOSpec{Metric: "ttft", TargetSec: 0.3, Pctl: 95}.withDefaults()
	e := newSLOEval([]SLOSpec{spec})
	if got := e.latencyBurn(spec, 50e6, 60); got != 0 {
		t.Fatalf("empty burn = %g", got)
	}
	// 10 completions in the last 60s: 1 violation = 10% of requests,
	// against a 5% budget = burn 2.0
	for i := 0; i < 9; i++ {
		e.recordCompletion(float64(i)*1e6, 0.1, 0.01, 1)
	}
	e.recordCompletion(9e6, 0.9, 0.01, 2) // violation
	if got := e.latencyBurn(spec, 10e6, 60); got < 1.999 || got > 2.001 {
		t.Fatalf("burn = %g, want ~2.0", got)
	}
	// 100s later those completions age out of a 60s window
	if got := e.latencyBurn(spec, 110e6, 60); got != 0 {
		t.Fatalf("aged-out burn = %g, want 0", got)
	}
}

// TestSLOFireAndClear walks the full multi-window transition: healthy →
// burning (fires once) → still burning (no re-fire) → recovered
// (clears at half threshold).
func TestSLOFireAndClear(t *testing.T) {
	spec := SLOSpec{Metric: "ttft", TargetSec: 0.3, Pctl: 95,
		BurnThreshold: 2, FastWindowS: 10, SlowWindowS: 30}
	e := newSLOEval([]SLOSpec{spec})

	// healthy traffic for 30s
	for i := 0; i < 30; i++ {
		e.recordCompletion(float64(i)*1e6, 0.1, 0.01, 0.5)
	}
	st := e.states[0]
	if fired := e.evaluate(30e6, nil); len(fired) != 0 || st.firing {
		t.Fatalf("healthy traffic fired %v (firing %v)", fired, st.firing)
	}

	// every completion violating: both windows saturate immediately
	for i := 30; i < 65; i++ {
		e.recordCompletion(float64(i)*1e6, 0.9, 0.01, 1.5)
	}
	fired := e.evaluate(65e6, nil)
	if len(fired) != 1 || !strings.HasPrefix(fired[0], "slo_burn ttft") {
		t.Fatalf("violations fired %v, want one slo_burn ttft", fired)
	}
	if fast, slow := e.burns(st.spec, nil, 65e6); !st.firing || fast < 2 || slow < 2 {
		t.Fatalf("after fire: firing %v fast %g slow %g", st.firing, fast, slow)
	}

	// still burning: no duplicate alert
	e.recordCompletion(66e6, 0.9, 0.01, 1.5)
	if fired = e.evaluate(66e6, nil); len(fired) != 0 {
		t.Fatalf("re-fired while already firing: %v", fired)
	}

	// recovery: healthy completions push both windows below threshold/2
	for i := 70; i < 120; i++ {
		e.recordCompletion(float64(i)*1e6, 0.1, 0.01, 0.5)
	}
	fired = e.evaluate(120e6, nil)
	if len(fired) != 1 || !strings.HasPrefix(fired[0], "slo_clear ttft") {
		t.Fatalf("recovery fired %v, want one slo_clear ttft", fired)
	}
	if st.firing {
		t.Fatal("still firing after clear")
	}
}

// TestSLOClearHysteresis: a burn hovering between threshold/2 and
// threshold must neither fire (if off) nor clear (if on).
func TestSLOClearHysteresis(t *testing.T) {
	// 7.5% violations against 5% budget = burn 1.5: above thr/2=1,
	// below thr=2
	spec := SLOSpec{Metric: "ttft", TargetSec: 0.3, Pctl: 95,
		BurnThreshold: 2, FastWindowS: 1000, SlowWindowS: 1000}
	e := newSLOEval([]SLOSpec{spec})
	e.states[0].firing = true // as if a prior storm fired it
	for i := 0; i < 40; i++ {
		v := 0.1
		if i%40 < 3 { // 3/40 = 7.5% violations
			v = 0.9
		}
		e.recordCompletion(float64(i)*1e6, v, 0.01, 1)
	}
	fired := e.evaluate(40e6, nil)
	if fast, _ := e.burns(spec, nil, 40e6); len(fired) != 0 || !e.states[0].firing {
		t.Fatalf("hovering burn %.2f flapped: fired=%v firing=%v",
			fast, fired, e.states[0].firing)
	}
}

// TestGoodputBurn: the goodput-floor SLO burns on the fraction of
// samples below the floor.
func TestGoodputBurn(t *testing.T) {
	spec := SLOSpec{Metric: "goodput", FloorTokensPerSec: 100, BudgetFrac: 0.05}.withDefaults()
	g := NewSeries(64)
	// 20 samples, 2 below the floor = 10% against a 5% budget = burn 2
	for i := 0; i < 20; i++ {
		v := 150.0
		if i == 5 || i == 15 {
			v = 50
		}
		g.Add(float64(i)*1e6, v)
	}
	if got := goodputBurn(spec, g, 20e6, 60); got != 2.0 {
		t.Fatalf("goodput burn = %g, want 2.0", got)
	}
	if got := goodputBurn(spec, nil, 20e6, 60); got != 0 {
		t.Fatalf("nil series burn = %g", got)
	}
}
