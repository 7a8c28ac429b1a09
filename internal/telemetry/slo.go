package telemetry

import (
	"fmt"
	"strings"
)

// SLO burn-rate evaluation (SRE style, over sim time). A latency SLO
// "p95 TTFT ≤ 300ms" grants an error budget of 1 − 0.95 = 5% of
// requests. The burn rate over a window is
//
//	burn = (fraction of completions violating the target) / budget
//
// so burn 1.0 consumes the budget exactly at the sustainable rate and
// burn 3.0 exhausts it 3× too fast. Alerting on a single window either
// pages on blips (short window) or pages late (long window); the
// standard fix is multi-window: fire only when BOTH a fast and a slow
// window burn above the threshold — the slow window proves the problem
// is real, the fast window proves it is still happening. Clearing uses
// a half-threshold hysteresis so a burn hovering at the threshold does
// not flap the alert.

// SLOSpec declares one objective. It is embedded verbatim in the
// Scenario observability section (json tags are the config surface).
type SLOSpec struct {
	// Metric: "ttft", "tpot", "e2e" (latency SLOs) or "goodput"
	// (throughput-floor SLO).
	Metric string `json:"metric"`
	// Pctl is the latency target percentile (e.g. 95 for p95). The
	// implied error budget is 1 − Pctl/100.
	Pctl float64 `json:"pctl,omitempty"`
	// TargetSec is the latency bound at that percentile.
	TargetSec float64 `json:"target_sec,omitempty"`
	// FloorTokensPerSec is the goodput floor (goodput SLOs only); the
	// budget is the fraction of samples allowed below the floor,
	// BudgetFrac (default 0.05).
	FloorTokensPerSec float64 `json:"floor_tokens_per_sec,omitempty"`
	BudgetFrac        float64 `json:"budget_frac,omitempty"`
	// BurnThreshold fires the alert when both window burns reach it
	// (default 2.0); clearing requires both below half of it.
	BurnThreshold float64 `json:"burn_threshold,omitempty"`
	// FastWindowS / SlowWindowS are the two evaluation windows in sim
	// seconds (defaults 60 and 300).
	FastWindowS float64 `json:"fast_window_s,omitempty"`
	SlowWindowS float64 `json:"slow_window_s,omitempty"`
}

func (s SLOSpec) withDefaults() SLOSpec {
	s.Metric = strings.ToLower(strings.TrimSpace(s.Metric))
	if s.Pctl <= 0 || s.Pctl >= 100 {
		s.Pctl = 95
	}
	if s.BudgetFrac <= 0 {
		s.BudgetFrac = 0.05
	}
	if s.BurnThreshold <= 0 {
		s.BurnThreshold = 2.0
	}
	if s.FastWindowS <= 0 {
		s.FastWindowS = 60
	}
	if s.SlowWindowS <= 0 {
		s.SlowWindowS = 300
	}
	if s.SlowWindowS < s.FastWindowS {
		s.SlowWindowS = s.FastWindowS
	}
	return s
}

// Validate rejects malformed specs at scenario-build time rather than
// silently evaluating nonsense.
func (s SLOSpec) Validate() error {
	switch strings.ToLower(strings.TrimSpace(s.Metric)) {
	case "ttft", "tpot", "e2e":
		if s.TargetSec <= 0 {
			return fmt.Errorf("telemetry: slo %q needs target_sec > 0", s.Metric)
		}
	case "goodput":
		if s.FloorTokensPerSec <= 0 {
			return fmt.Errorf("telemetry: goodput slo needs floor_tokens_per_sec > 0")
		}
	default:
		return fmt.Errorf("telemetry: unknown slo metric %q (want ttft|tpot|e2e|goodput)", s.Metric)
	}
	return nil
}

// SLOStatus is one objective's evaluated state in a Snapshot.
type SLOStatus struct {
	Metric            string  `json:"metric"`
	Pctl              float64 `json:"pctl,omitempty"`
	TargetSec         float64 `json:"target_sec,omitempty"`
	FloorTokensPerSec float64 `json:"floor_tokens_per_sec,omitempty"`
	// FastBurn / SlowBurn are the current window burn rates.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// Firing is the hysteretic alert state.
	Firing bool `json:"firing"`
}

// complRec is one completed request's latency triple.
type complRec struct {
	timeUs          float64
	ttft, tpot, e2e float64
}

// sloState tracks one spec's firing hysteresis.
type sloState struct {
	spec   SLOSpec
	firing bool
}

// sloEval evaluates all configured SLOs against a bounded completion
// history plus the goodput sample series.
type sloEval struct {
	states []*sloState
	comps  []complRec // ring
	next   int
	n      int
}

const sloComplCap = 4096

func newSLOEval(specs []SLOSpec) *sloEval {
	e := &sloEval{comps: make([]complRec, sloComplCap)}
	for _, s := range specs {
		e.states = append(e.states, &sloState{spec: s.withDefaults()})
	}
	return e
}

func (e *sloEval) recordCompletion(timeUs, ttft, tpot, e2e float64) {
	e.comps[e.next] = complRec{timeUs: timeUs, ttft: ttft, tpot: tpot, e2e: e2e}
	e.next = (e.next + 1) % len(e.comps)
	if e.n < len(e.comps) {
		e.n++
	}
}

// latencyBurn computes the burn rate for one latency spec over
// [nowUs − windowS, nowUs]. No completions in the window burns 0 (an
// idle system is not violating a latency SLO).
func (e *sloEval) latencyBurn(spec SLOSpec, nowUs, windowS float64) float64 {
	cutoff := nowUs - windowS*1e6
	var total, viol int
	for i := 0; i < e.n; i++ {
		r := e.comps[(e.next-1-i+len(e.comps)*2)%len(e.comps)]
		if r.timeUs < cutoff {
			break // ring is time-ordered newest-first from next-1
		}
		total++
		var v float64
		switch spec.Metric {
		case "ttft":
			v = r.ttft
		case "tpot":
			v = r.tpot
		default:
			v = r.e2e
		}
		if v > spec.TargetSec {
			viol++
		}
	}
	if total == 0 {
		return 0
	}
	budget := 1 - spec.Pctl/100
	return (float64(viol) / float64(total)) / budget
}

// goodputBurn computes the burn rate for a goodput-floor spec from the
// cluster goodput series: fraction of samples below the floor divided
// by the allowed fraction.
func goodputBurn(spec SLOSpec, goodput *Series, nowUs, windowS float64) float64 {
	if goodput == nil || goodput.Len() == 0 {
		return 0
	}
	cutoff := nowUs - windowS*1e6
	var total, below int
	for i := goodput.Len() - 1; i >= 0; i-- {
		t, v := goodput.At(i)
		if t < cutoff {
			break
		}
		total++
		if v < spec.FloorTokensPerSec {
			below++
		}
	}
	if total == 0 {
		return 0
	}
	return (float64(below) / float64(total)) / spec.BudgetFrac
}

// burns returns spec's fast- and slow-window burn rates at sim time
// nowUs.
func (e *sloEval) burns(spec SLOSpec, goodput *Series, nowUs float64) (fast, slow float64) {
	if spec.Metric == "goodput" {
		return goodputBurn(spec, goodput, nowUs, spec.FastWindowS), goodputBurn(spec, goodput, nowUs, spec.SlowWindowS)
	}
	return e.latencyBurn(spec, nowUs, spec.FastWindowS), e.latencyBurn(spec, nowUs, spec.SlowWindowS)
}

// evaluate runs every spec at sim time nowUs and returns deterministic
// alert notes for specs that transitioned (firing/cleared) this tick.
func (e *sloEval) evaluate(nowUs float64, goodput *Series) (fired []string) {
	for _, st := range e.states {
		fast, slow := e.burns(st.spec, goodput, nowUs)
		thr := st.spec.BurnThreshold
		if !st.firing && fast >= thr && slow >= thr {
			st.firing = true
			fired = append(fired, fmt.Sprintf("slo_burn %s fast=%.2f slow=%.2f", st.spec.Metric, fast, slow))
		} else if st.firing && fast < thr/2 && slow < thr/2 {
			st.firing = false
			fired = append(fired, fmt.Sprintf("slo_clear %s fast=%.2f slow=%.2f", st.spec.Metric, fast, slow))
		}
	}
	return fired
}
