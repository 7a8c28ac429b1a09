package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"diffkv/internal/disagg"
	"diffkv/internal/faults"
	"diffkv/internal/gpusim"
	"diffkv/internal/mathx"
	"diffkv/internal/serving"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// freshSnapshot reads instance i's snapshot from its engine directly.
func freshSnapshot(c *Cluster, i int) Snapshot {
	e := c.engines[i]
	return Snapshot{
		ID:             i,
		QueueDepth:     e.QueueDepth(),
		Running:        e.RunningCount(),
		ResidentTokens: e.ResidentTokens(),
		SwappedTokens:  e.SwappedTokens(),
		Degraded:       c.InstanceHealth(i) == Degraded,
		Role:           c.Role(i),
	}
}

// checkTouched compares everything touch caches with a brute-force read
// of the engines: the step heap's top with a scan of the live engines'
// NextTime, each cached snapshot and the routable view with fresh
// snapshots, Clock with a max over the engines, the work count with a
// count of HasWork, and the least-loaded heap's top with a scan of the
// view by an unbound least-loaded policy.
func checkTouched(t *testing.T, c *Cluster, at string) {
	t.Helper()
	step, stepAt := -1, 0.0
	var clock gpusim.Micros
	working := 0
	var view []Snapshot
	for i, e := range c.engines {
		clock = max(clock, e.Clock())
		if e.HasWork() {
			working++
		}
		s := freshSnapshot(c, i)
		if c.snap[i] != s {
			t.Fatalf("%s: cached snapshot of instance %d is %+v, engine says %+v", at, i, c.snap[i], s)
		}
		if c.down(i) {
			continue
		}
		if nt, ok := e.NextTime(); ok && (step < 0 || float64(nt) < stepAt) {
			step, stepAt = i, float64(nt)
		}
		if s.Role != disagg.RoleDecode && (c.cfg.MaxQueueDepth <= 0 || s.QueueDepth < c.cfg.MaxQueueDepth) {
			view = append(view, s)
		}
	}
	if top, ok := c.stepQ.Top(); ok != (step >= 0) || (ok && (top != step || c.stepAt[top] != stepAt)) {
		t.Fatalf("%s: step heap top is instance %d at %v (present %v), the scan finds %d at %v",
			at, top, c.stepAt[max(top, 0)], ok, step, stepAt)
	}
	if !slices.Equal(c.view, view) {
		t.Fatalf("%s: routable view\n got %+v\nwant %+v", at, c.view, view)
	}
	if got := c.Clock(); got != clock {
		t.Fatalf("%s: Clock = %v, max over the engines = %v", at, got, clock)
	}
	if c.working != working {
		t.Fatalf("%s: %d engines counted as holding work, %d do", at, c.working, working)
	}
	if c.loads != nil && len(view) > 0 {
		want := (&leastLoaded{}).Pick(workload.Request{}, view)
		if top, _ := c.loads.Top(); top != want {
			t.Fatalf("%s: least-loaded heap top is %d, a scan of the view picks %d", at, top, want)
		}
	}
}

// checkedPolicy checks the cached fleet view at every routing decision,
// before it delegates the pick: the view a policy is handed must be
// fresh, also right after a direct Session.Cancel.
type checkedPolicy struct {
	Policy
	t *testing.T
	c *Cluster
}

// checkRouting wraps c's policy in a checkedPolicy.
func checkRouting(t *testing.T, c *Cluster) {
	c.policy = checkedPolicy{Policy: c.policy, t: t, c: c}
}

func (p checkedPolicy) Pick(r workload.Request, snaps []Snapshot) int {
	checkTouched(p.t, p.c, fmt.Sprintf("routing request %d", r.ID))
	return p.Policy.Pick(r, snaps)
}

func (p checkedPolicy) Observe(r workload.Request, idx int, nowUs float64) {
	if o, ok := p.Policy.(observer); ok {
		o.Observe(r, idx, nowUs)
	}
}

// touchCfg is a small traits-mode fleet whose admission bound is low
// enough that instances leave and rejoin the routable view.
func touchCfg(n int, policy string, seed uint64) Config {
	cfg := sessionCfg(n)
	cfg.Policy = policy
	cfg.Seed = seed
	cfg.MaxQueueDepth = 3
	cfg.Engine.MaxGenLen = 48
	cfg.Engine.PrefixCacheGroups = 4
	return cfg
}

// chaosPlan crashes the first and last instances and then instances at
// random, each with a restart, and slows two of them down.
func chaosPlan(n int, seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed:            seed,
		Crashes:         []faults.Crash{{Inst: 1, AtSec: 1, DownSec: 1}, {Inst: n, AtSec: 3, DownSec: 0.5}},
		CrashRatePerMin: 3 + float64(n)/2,
		MeanDownSec:     1,
		HorizonSec:      8,
		Slowdowns: []faults.Slowdown{
			{Inst: 1, AtSec: 0.5, DurSec: 3, Factor: 3},
			{Inst: n, AtSec: 2, DurSec: 2, Factor: 2},
		},
		RetryBudget: 4,
		RetryBaseMs: 40,
	}
}

// burstReqs draws arrivals in bursts: several requests share each
// arrival instant, with shared prompt prefixes.
func burstReqs(rng *mathx.RNG, n int, perSec float64, seed uint64) []workload.Request {
	gen := workload.NewRequestGen(workload.MMLU, 48, seed)
	pc := workload.PrefixConfig{Groups: 6, PrefixLen: 256, SharedFrac: 0.7}
	var reqs []workload.Request
	at := 0.0
	for len(reqs) < n {
		at += rng.Exp(perSec) * 1e6
		for k := 1 + rng.Intn(4); k > 0 && len(reqs) < n; k-- {
			reqs = append(reqs, gen.NextShared(at, pc))
		}
	}
	return reqs
}

// TestTouchMatchesBruteForce drives seeded random event mixes through
// the event core at three fleet widths — batch arrivals under
// crash/restart/slowdown faults, session Open and cancel (direct, by
// context, and a direct cancel straight before an Open) under faults,
// and disaggregated batch and session runs with a mixed pool, the
// latter with token callbacks that cancel sessions on other instances —
// and after every fired event, at every routing decision and at every
// decode placement compares the cached fleet view with a brute-force
// read of the engines (checkTouched).
func TestTouchMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch-faults/N=%d", n), func(t *testing.T) {
			cfg := touchCfg(n, PolicyLeastLoaded, 11)
			cfg.Faults = chaosPlan(n, 11)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRouting(t, c)
			reqs := burstReqs(mathx.NewRNG(uint64(n)), 16*n+40, 3*float64(n), 11)
			seen := driveBatch(t, c, reqs)
			for _, class := range []eventClass{evFault, evDue, evArrival, evStep} {
				if !seen[class] {
					t.Fatalf("class %d never fired", class)
				}
			}
			if c.crashes == 0 || c.restarts == 0 {
				t.Fatalf("crashes %d restarts %d: the fault mix did not run", c.crashes, c.restarts)
			}
		})
		t.Run(fmt.Sprintf("sessions-faults/N=%d", n), func(t *testing.T) {
			cfg := touchCfg(n, PolicyPrefixAffinity, 13)
			cfg.Faults = chaosPlan(n, 13)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRouting(t, c)
			driveSessions(t, c, mathx.NewRNG(uint64(100+n)), 30*n+60, false)
			if m := c.Metrics(); m.Crashes == 0 {
				t.Fatal("no crash: the fault mix did not run")
			}
		})
		if n < 2 {
			continue // disaggregation needs a prefill and a decode instance
		}
		t.Run(fmt.Sprintf("disagg/N=%d", n), func(t *testing.T) {
			cfg := touchCfg(n, PolicyLeastLoaded, 17)
			cfg.Disagg = &disagg.Config{PrefillInstances: max(1, n/4), DecodeInstances: max(1, n/4)}
			ships := &shipCheck{t: t}
			cfg.Tracer = ships
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ships.c = c
			checkRouting(t, c)
			seen := driveBatch(t, c, burstReqs(mathx.NewRNG(uint64(200+n)), 10*n, 3*float64(n), 17))
			if !seen[evDue] || ships.n == 0 {
				t.Fatal("no KV transfer fired")
			}
		})
		t.Run(fmt.Sprintf("sessions-disagg/N=%d", n), func(t *testing.T) {
			cfg := touchCfg(n, PolicyLeastLoaded, 19)
			cfg.Disagg = &disagg.Config{PrefillInstances: max(1, n/4), DecodeInstances: max(1, n/4)}
			ships := &shipCheck{t: t}
			cfg.Tracer = ships
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ships.c = c
			checkRouting(t, c)
			driveSessions(t, c, mathx.NewRNG(uint64(300+n)), 30*n+60, true)
			if ships.n == 0 {
				t.Fatal("no KV transfer fired")
			}
		})
	}
}

// shipCheck checks every decode-side placement as it is made, in the
// middle of the prefill instance's step event: the cached view must match
// the engines, and the decode instance must be the least-loaded of fresh
// snapshots of the live decode and mixed instances, the stepping mixed
// instance included.
type shipCheck struct {
	t *testing.T
	c *Cluster
	n int
}

func (s *shipCheck) Emit(ev trace.Event) {
	if ev.Kind != trace.KindKVShip {
		return
	}
	checkTouched(s.t, s.c, fmt.Sprintf("shipping request %d", ev.Seq))
	var snaps []Snapshot
	for i := range s.c.engines {
		if !s.c.down(i) && s.c.Role(i) != disagg.RolePrefill {
			snaps = append(snaps, freshSnapshot(s.c, i))
		}
	}
	if want := (&leastLoaded{}).Pick(workload.Request{}, snaps); ev.Inst-1 != want {
		s.t.Errorf("request %d shipped to instance %d, the least-loaded decode-side instance is %d", ev.Seq, ev.Inst-1, want)
	}
	s.n++
}

// driveBatch fires a batch run's events one at a time, checking the
// cached view after each, and returns the classes that fired.
func driveBatch(t *testing.T, c *Cluster, reqs []workload.Request) map[eventClass]bool {
	t.Helper()
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].ArrivalUs < reqs[b].ArrivalUs })
	c.hasRun = true
	c.pending = reqs
	c.acc.m.Submitted = len(reqs)
	checkTouched(t, c, "before the run")
	seen := map[eventClass]bool{}
	for k := 0; ; k++ {
		ev := c.next()
		if ev.class == evNone {
			break
		}
		seen[ev.class] = true
		if _, err := c.fire(ev); err != nil {
			t.Fatal(err)
		}
		checkTouched(t, c, fmt.Sprintf("after event %d %+v", k, ev))
	}
	if m := c.finishMetrics(); m.Stuck() != 0 {
		t.Fatalf("stuck %d after the drain", m.Stuck())
	}
	return seen
}

// driveSessions runs ops random session operations: opens at Poisson
// arrival times (or the cluster clock, when that is later), steps, direct
// cancels and context cancels. A direct Cancel changes its engine
// behind the cluster's back, so it is followed either by NextTime,
// which must see it, before the view is checked, or straight
// away by an Open, whose routing decision must see it (checkedPolicy).
// With callbackCancels, a session's token callback sometimes cancels
// another open session, which may live on another instance: such a
// cancel changes that instance in the middle of the step event, so the
// view is checked after a query rather than right after the step.
func driveSessions(t *testing.T, c *Cluster, rng *mathx.RNG, ops int, callbackCancels bool) {
	t.Helper()
	gen := workload.NewRequestGen(workload.MMLU, 48, 5)
	pc := workload.PrefixConfig{Groups: 6, PrefixLen: 256, SharedFrac: 0.7}
	type open struct {
		s      *serving.Session
		cancel context.CancelFunc
	}
	var live []open
	step := func(at string) {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if callbackCancels {
			c.NextTime()
		}
		checkTouched(t, c, at)
	}
	cancelled, arrival := 0, 0.0
	openOne := func(at string) {
		ctx, cancel := context.WithCancel(context.Background())
		arrival += rng.Exp(float64(2*len(c.engines)+3)) * 1e6
		r := gen.NextShared(max(arrival, float64(c.Clock())), pc)
		r.ID = 0
		s, err := c.Open(ctx, r)
		if errors.Is(err, ErrAllSaturated) {
			cancel()
			// shed on a view that must be fresh, and so empty
			checkTouched(t, c, at+" (shed)")
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if callbackCancels {
			s.OnToken(func(serving.TokenUpdate) {
				if rng.Intn(8) == 0 && len(live) > 0 {
					live[rng.Intn(len(live))].s.Cancel()
					cancelled++
				}
			})
		}
		live = append(live, open{s, cancel})
		checkTouched(t, c, at+" (open)")
	}
	for op := 0; op < ops; op++ {
		at := fmt.Sprintf("op %d", op)
		switch k := rng.Intn(10); {
		case k < 4:
			openOne(at)
		case k < 5 && len(live) > 0:
			live[rng.Intn(len(live))].s.Cancel()
			cancelled++
			// the query sees the cancel before any reap
			c.NextTime()
			checkTouched(t, c, at+" (cancel, query)")
			step(at + " (cancel, query, step)")
		case k < 6 && len(live) > 0:
			live[rng.Intn(len(live))].cancel()
			cancelled++
			step(at + " (context cancel, step)")
		case k < 7 && len(live) > 0:
			live[rng.Intn(len(live))].s.Cancel()
			cancelled++
			openOne(at + " (cancel, open)")
		default:
			step(at + " (step)")
		}
	}
	for hasWork(c) {
		step("drain")
	}
	for _, o := range live {
		o.cancel()
	}
	if m := c.Metrics(); m.Stuck() != 0 || cancelled == 0 {
		t.Fatalf("stuck %d, %d cancels: the session mix did not run", m.Stuck(), cancelled)
	}
}

// TestBoundLeastLoadedScansOtherSlices checks that a least-loaded policy
// bound to a cluster reads the heap only for the routable view itself:
// handed a filtered copy that lacks the heap's top, it scans the copy.
func TestBoundLeastLoadedScansOtherSlices(t *testing.T) {
	c, err := New(touchCfg(8, PolicyLeastLoaded, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range burstReqs(mathx.NewRNG(3), 13, 40, 3) {
		c.dispatch(r)
	}
	top, _ := c.loads.Top()
	if got, want := c.policy.Pick(workload.Request{}, c.view), pickLeast(c.view); got != top || got != want {
		t.Fatalf("pick over the view = %d, heap top %d, scan %d", got, top, want)
	}
	var rest []Snapshot
	for _, s := range c.view {
		if s.ID != top {
			rest = append(rest, s)
		}
	}
	if got, want := c.policy.Pick(workload.Request{}, rest), pickLeast(rest); got != want {
		t.Fatalf("pick over the view without instance %d = %d, a scan picks %d", top, got, want)
	}
}
