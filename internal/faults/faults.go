// Package faults is the deterministic fault-injection layer for the
// serving stack. A Plan declares what goes wrong — instance crashes at
// fixed times or at a seeded random rate, crash-and-restart downtime
// windows, transient slowdowns, and a PCIe transfer error rate — and an
// Injector expands it into a time-sorted event schedule the cluster
// event loop consumes through its existing simulated clock. Everything
// is driven by a splittable seeded RNG, so the same Plan and seed
// reproduce the identical failure timeline (and, downstream, the
// identical completion/failure set) run after run.
package faults

import (
	"fmt"
	"math"
	"sort"

	"diffkv/internal/mathx"
)

// Defaults applied by Plan.norm in place of unset fields.
const (
	DefaultRetryBudget = 3    // re-dispatches per request before terminal failure
	DefaultRetryBaseMs = 50.0 // first-retry backoff (doubles per attempt)
	DefaultMeanDownSec = 5.0  // mean downtime of rate-driven crashes
	DefaultHorizonSec  = 120. // rate-driven schedule horizon
)

// Crash is one declared instance crash. DownSec > 0 schedules a restart
// after that much downtime; DownSec <= 0 means the instance stays down
// for the rest of the run (its host-tier state is unrecoverable, so
// swapped sequences are re-dispatched from scratch).
type Crash struct {
	Inst    int     `json:"instance"`           // 1-based instance index
	AtSec   float64 `json:"at_sec"`             // crash time (simulated seconds)
	DownSec float64 `json:"down_sec,omitempty"` // downtime before restart; <= 0 = permanent
}

// Slowdown is a transient degraded window: the instance keeps serving
// but every step takes Factor times as long (straggler GPU, thermal
// throttling, noisy neighbor). The router down-weights it while the
// window is open.
type Slowdown struct {
	Inst   int     `json:"instance"` // 1-based instance index
	AtSec  float64 `json:"at_sec"`
	DurSec float64 `json:"dur_sec"`
	Factor float64 `json:"factor"` // step-time multiplier, > 1
}

// Plan declares a deterministic fault schedule for a cluster of
// instances. Explicit Crashes/Slowdowns and the rate-driven generator
// compose: both feed the same sorted event timeline. It is also a
// scenario spec's "faults" section, keyed by its JSON tags.
type Plan struct {
	// Seed drives schedule expansion, backoff jitter, and PCIe fault
	// draws. Two runs with the same Plan produce identical timelines. It
	// is not part of the spec: a scenario seeds the plan from its own
	// seed.
	Seed uint64 `json:"-"`

	Crashes   []Crash    `json:"crashes,omitempty"`
	Slowdowns []Slowdown `json:"slowdowns,omitempty"`

	// CrashRatePerMin > 0 adds seeded random crashes per instance with
	// exponentially distributed interarrivals at this rate, each with
	// exponentially distributed downtime of mean MeanDownSec (<= 0 selects
	// DefaultMeanDownSec, 5 s), out to HorizonSec (<= 0 selects
	// DefaultHorizonSec, 120 s).
	CrashRatePerMin float64 `json:"crash_rate_per_min,omitempty"`
	MeanDownSec     float64 `json:"mean_down_sec,omitempty"`
	HorizonSec      float64 `json:"horizon_sec,omitempty"`

	// PCIeErrorRate is the probability that any single host<->device KV
	// transfer (swap-out, swap-in, host-prefix promotion) faults. A
	// faulted swap-out falls back to recompute; a faulted swap-in stays
	// queued and retries on a later scheduler pass.
	PCIeErrorRate float64 `json:"pcie_error_rate,omitempty"`

	// RetryBudget caps re-dispatches per request after instance
	// failures; once exhausted the request fails terminally
	// (serving.ErrFailed). 0 selects DefaultRetryBudget (3); negative
	// means no retries at all.
	RetryBudget int `json:"retry_budget,omitempty"`

	// RetryBaseMs is the base re-dispatch backoff (<= 0 selects
	// DefaultRetryBaseMs, 50 ms); attempt k waits base * 2^(k-1) *
	// jitter, jitter uniform in [0.5, 1.5).
	RetryBaseMs float64 `json:"retry_base_ms,omitempty"`
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return len(p.Crashes) > 0 || len(p.Slowdowns) > 0 ||
		p.CrashRatePerMin > 0 || p.PCIeErrorRate > 0
}

// norm returns the plan with defaults applied.
func (p Plan) norm() Plan {
	if p.RetryBudget == 0 {
		p.RetryBudget = DefaultRetryBudget
	}
	if p.RetryBudget < 0 {
		p.RetryBudget = 0
	}
	if p.RetryBaseMs <= 0 {
		p.RetryBaseMs = DefaultRetryBaseMs
	}
	if p.MeanDownSec <= 0 {
		p.MeanDownSec = DefaultMeanDownSec
	}
	if p.HorizonSec <= 0 {
		p.HorizonSec = DefaultHorizonSec
	}
	return p
}

// Validate checks the plan against a cluster size.
func (p Plan) Validate(instances int) error {
	for i, c := range p.Crashes {
		if c.Inst < 1 || c.Inst > instances {
			return fmt.Errorf("faults: crashes[%d]: instance %d out of range 1..%d", i, c.Inst, instances)
		}
		if c.AtSec < 0 {
			return fmt.Errorf("faults: crashes[%d]: negative at_sec %g", i, c.AtSec)
		}
	}
	for i, s := range p.Slowdowns {
		if s.Inst < 1 || s.Inst > instances {
			return fmt.Errorf("faults: slowdowns[%d]: instance %d out of range 1..%d", i, s.Inst, instances)
		}
		if s.AtSec < 0 || s.DurSec <= 0 {
			return fmt.Errorf("faults: slowdowns[%d]: need at_sec >= 0 and dur_sec > 0", i)
		}
		if s.Factor <= 1 {
			return fmt.Errorf("faults: slowdowns[%d]: factor %g must be > 1", i, s.Factor)
		}
	}
	if p.CrashRatePerMin < 0 {
		return fmt.Errorf("faults: negative crash_rate_per_min %g", p.CrashRatePerMin)
	}
	if p.PCIeErrorRate < 0 || p.PCIeErrorRate >= 1 {
		return fmt.Errorf("faults: pcie_error_rate %g outside [0, 1)", p.PCIeErrorRate)
	}
	return nil
}

// Op is the kind of one scheduled fault event.
type Op string

const (
	OpCrash   Op = "crash"
	OpRestart Op = "restart"
	OpSlow    Op = "slow"
	OpSlowEnd Op = "slow_end"
)

// Event is one expanded fault-timeline entry.
type Event struct {
	AtUs   float64
	Inst   int // 1-based
	Op     Op
	Factor float64 // slowdown factor (OpSlow only)
}

// Injector holds the expanded, time-sorted fault schedule plus the
// seeded streams for backoff jitter and PCIe fault draws. It is not
// goroutine-safe; the cluster consumes it from its single-threaded
// event loop, which is what keeps the draws reproducible.
type Injector struct {
	plan   Plan
	events []Event
	next   int
	// separate streams so the number of transfers doesn't perturb
	// backoff jitter (and vice versa)
	xferRNG    *mathx.RNG
	backoffRNG *mathx.RNG
}

// New expands a plan into an injector for a cluster of the given size.
func New(p Plan, instances int) (*Injector, error) {
	if err := p.Validate(instances); err != nil {
		return nil, err
	}
	p = p.norm()
	root := mathx.NewRNG(p.Seed ^ 0x6661756c7473) // "faults"
	in := &Injector{
		plan:       p,
		xferRNG:    root.SplitAt(1),
		backoffRNG: root.SplitAt(2),
	}
	for _, c := range p.Crashes {
		in.events = append(in.events, Event{AtUs: c.AtSec * 1e6, Inst: c.Inst, Op: OpCrash})
		if c.DownSec > 0 {
			in.events = append(in.events, Event{AtUs: (c.AtSec + c.DownSec) * 1e6, Inst: c.Inst, Op: OpRestart})
		}
	}
	for _, s := range p.Slowdowns {
		in.events = append(in.events, Event{AtUs: s.AtSec * 1e6, Inst: s.Inst, Op: OpSlow, Factor: s.Factor})
		in.events = append(in.events, Event{AtUs: (s.AtSec + s.DurSec) * 1e6, Inst: s.Inst, Op: OpSlowEnd})
	}
	if p.CrashRatePerMin > 0 {
		ratePerSec := p.CrashRatePerMin / 60
		for inst := 1; inst <= instances; inst++ {
			rng := root.SplitAt(uint64(16 + inst))
			// alternate up/down periods: exponential time-to-crash while
			// up, exponential downtime while down
			t := rng.Exp(ratePerSec)
			for t < p.HorizonSec {
				in.events = append(in.events, Event{AtUs: t * 1e6, Inst: inst, Op: OpCrash})
				down := rng.Exp(1 / p.MeanDownSec)
				t += down
				in.events = append(in.events, Event{AtUs: t * 1e6, Inst: inst, Op: OpRestart})
				t += rng.Exp(ratePerSec)
			}
		}
	}
	sort.SliceStable(in.events, func(i, j int) bool {
		a, b := in.events[i], in.events[j]
		if a.AtUs != b.AtUs {
			return a.AtUs < b.AtUs
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		return opOrder(a.Op) < opOrder(b.Op)
	})
	// collapse double-crashes: a rate-driven crash landing inside
	// another downtime window for the same instance would crash an
	// already-down instance; drop events that don't change state
	in.events = normalizeTimeline(in.events, instances)
	return in, nil
}

// opOrder breaks same-microsecond ties: a restart precedes a crash so a
// zero-length downtime window still cycles the instance, and slowdown
// windows close before new ones open.
func opOrder(op Op) int {
	switch op {
	case OpRestart:
		return 0
	case OpSlowEnd:
		return 1
	case OpCrash:
		return 2
	default: // OpSlow
		return 3
	}
}

// normalizeTimeline drops events that would not change instance state
// (crashing a down instance, restarting an up one, ending a slowdown
// cancelled by a crash), so consumers see a clean state machine.
func normalizeTimeline(events []Event, instances int) []Event {
	down := make([]bool, instances+1)
	slow := make([]bool, instances+1)
	out := events[:0]
	for _, ev := range events {
		switch ev.Op {
		case OpCrash:
			if down[ev.Inst] {
				continue
			}
			down[ev.Inst] = true
			slow[ev.Inst] = false // a crash resets the slow window
		case OpRestart:
			if !down[ev.Inst] {
				continue
			}
			down[ev.Inst] = false
		case OpSlow:
			if down[ev.Inst] || slow[ev.Inst] {
				continue
			}
			slow[ev.Inst] = true
		case OpSlowEnd:
			if !slow[ev.Inst] {
				continue
			}
			slow[ev.Inst] = false
		}
		out = append(out, ev)
	}
	return out
}

// Plan returns the normalized plan the injector was built from.
func (in *Injector) Plan() Plan { return in.plan }

// Events returns the full expanded timeline (for reports and tests).
//
//diffkv:allow deadcode -- tests see seed determinism through it: the same plan and seed expand to the same fault timeline, a different seed to another
func (in *Injector) Events() []Event { return in.events }

// NextAt returns the time of the next unconsumed fault event.
func (in *Injector) NextAt() (float64, bool) {
	if in.next >= len(in.events) {
		return math.Inf(1), false
	}
	return in.events[in.next].AtUs, true
}

// Pop consumes and returns the next fault event. Panics if exhausted;
// guard with NextAt.
func (in *Injector) Pop() Event {
	ev := in.events[in.next]
	in.next++
	return ev
}

// HasRestart reports whether a restart for the instance is still ahead
// in the schedule — i.e. whether a crash at this point is temporary.
// The cluster uses it to decide if a crashed instance's host-tier state
// is worth keeping (swapped sequences survive the GPU crash and resume
// after restart) or must be abandoned.
func (in *Injector) HasRestart(inst int) bool {
	for i := in.next; i < len(in.events); i++ {
		if in.events[i].Inst == inst && in.events[i].Op == OpRestart {
			return true
		}
	}
	return false
}

// XferFault draws whether one host<->device transfer faults. Seeded and
// consumed in event-loop order, so the draw sequence is reproducible.
func (in *Injector) XferFault() bool {
	if in.plan.PCIeErrorRate <= 0 {
		return false
	}
	return in.xferRNG.Float64() < in.plan.PCIeErrorRate
}

// RetryBudget returns the per-request re-dispatch budget.
func (in *Injector) RetryBudget() int { return in.plan.RetryBudget }

// Backoff returns the re-dispatch delay in microseconds before attempt
// number `attempt` (1-based): base * 2^(attempt-1), jittered uniformly
// in [0.5, 1.5) so simultaneous orphans from one crash don't re-arrive
// in lockstep.
func (in *Injector) Backoff(attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	base := in.plan.RetryBaseMs * 1e3 // ms -> µs
	jitter := 0.5 + in.backoffRNG.Float64()
	return base * math.Pow(2, float64(attempt-1)) * jitter
}
