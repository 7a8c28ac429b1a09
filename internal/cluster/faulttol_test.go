package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/faults"
	"diffkv/internal/gpusim"
	"diffkv/internal/offload"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// chaosCluster builds a fault-injected cluster. Oversubscribed
// manager-mode engines (small KV budget, long generations) so crashes
// land on instances with real in-flight and swapped state.
func chaosCluster(t *testing.T, plan *faults.Plan, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Instances: 3,
		Policy:    PolicyLeastLoaded,
		Seed:      17,
		Faults:    plan,
	}
	cfg.Engine = serving.Config{
		Model: synth.Llama3_8B, Cluster: gpusim.NewCluster(gpusim.L40(), 1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3,
		MemoryReserve: 0.985, MaxGenLen: 2048,
		PreemptPolicy: offload.PolicySwap, HostMemoryBytes: 2 << 30,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// chaosReqs samples long-generation requests arriving at rate req/s —
// enough pressure that instances hold queued, running and swapped work
// when crashes land.
func chaosReqs(n int, rate float64, seed uint64) []workload.Request {
	gen := workload.NewRequestGen(workload.MATH, 2048, seed)
	reqs := gen.CoTBatch(n)
	t := 0.0
	for i := range reqs {
		t += 1e6 / rate
		reqs[i].ArrivalUs = t
	}
	return reqs
}

// churnPlan crashes two of three instances mid-run (both restart) and
// degrades the third — the liveness gauntlet.
func churnPlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed: seed,
		Crashes: []faults.Crash{
			{Inst: 1, AtSec: 2, DownSec: 4},
			{Inst: 2, AtSec: 5, DownSec: 3},
		},
		Slowdowns: []faults.Slowdown{{Inst: 3, AtSec: 1, DurSec: 6, Factor: 2.5}},
	}
}

// The h-liveness invariant under crash/restart churn: every dispatched
// request reaches a terminal state — completed, or terminally failed
// with its retry budget spent — and the fault machinery visibly ran.
func TestChaosLivenessUnderChurn(t *testing.T) {
	col := trace.NewCollector(0)
	c := chaosCluster(t, churnPlan(99), func(cfg *Config) { cfg.Tracer = col })
	reqs := chaosReqs(36, 6, 5)
	m, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dispatched != len(reqs) {
		t.Fatalf("dispatched %d of %d", m.Dispatched, len(reqs))
	}
	if m.Stuck() != 0 {
		t.Fatalf("liveness violated: %d requests unaccounted (completed %d, failed %d of %d)",
			m.Stuck(), m.Completed, m.Failed, m.Dispatched)
	}
	if n := liveRecords(c); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	if m.Crashes != 2 || m.Restarts != 2 {
		t.Fatalf("crashes/restarts %d/%d, want 2/2", m.Crashes, m.Restarts)
	}
	if m.Redispatches == 0 {
		t.Fatal("crashes with queued work re-dispatched nothing")
	}
	if m.LostKVBytes <= 0 {
		t.Fatal("crashes of busy instances lost no KV bytes")
	}
	s := col.Summarize()
	if s.Counts[trace.KindHealth] < 6 { // 2 crashes + 2 restarts + slow + slow_end
		t.Fatalf("health transitions %d, want >= 6", s.Counts[trace.KindHealth])
	}
	if s.Counts[trace.KindRetry] == 0 {
		t.Fatal("no retry events for crash orphans")
	}
	if s.Counts[trace.KindComplete] != m.Completed || s.Counts[trace.KindFail] != m.Failed {
		t.Fatalf("trace terminal counts (%d complete, %d fail) disagree with metrics (%d, %d)",
			s.Counts[trace.KindComplete], s.Counts[trace.KindFail], m.Completed, m.Failed)
	}
}

// The same plan and seed must reproduce the identical event stream —
// the fault-injection determinism contract (completion and failure
// sets included, since those are trace events).
func TestChaosDeterministicEventStream(t *testing.T) {
	run := func() []trace.Event {
		col := trace.NewCollector(0)
		plan := churnPlan(99)
		plan.CrashRatePerMin = 2
		plan.HorizonSec = 30
		plan.PCIeErrorRate = 0.05
		c := chaosCluster(t, plan, func(cfg *Config) { cfg.Tracer = col })
		if _, err := c.Run(chaosReqs(30, 6, 5)); err != nil {
			t.Fatal(err)
		}
		return col.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a), len(b))
	}
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d differs:\n  %+v\n  %+v", i, a[i], b[i])
			}
		}
	}
}

// Host-tier crash insurance: a crash-with-restart keeps swapped
// sequences in host memory, and they resume after the restart instead
// of being re-dispatched — visible as SwapRecovered > 0 and recover
// trace events.
func TestChaosSwapInsuranceRecovers(t *testing.T) {
	col := trace.NewCollector(0)
	// crash late enough that oversubscription has swapped sequences out;
	// a burst arrival (CoTBatch leaves ArrivalUs 0) oversubscribes both
	// instances immediately
	plan := &faults.Plan{
		Seed:    7,
		Crashes: []faults.Crash{{Inst: 1, AtSec: 20, DownSec: 5}},
	}
	c := chaosCluster(t, plan, func(cfg *Config) {
		cfg.Instances = 2
		cfg.Tracer = col
	})
	m, err := c.Run(workload.NewRequestGen(workload.MATH, 2048, 11).CoTBatch(40))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stuck() != 0 {
		t.Fatalf("liveness violated: %d unaccounted", m.Stuck())
	}
	if m.SwapRecovered == 0 {
		t.Skip("crash landed on an instance with nothing swapped (workload did not oversubscribe)")
	}
	recovers := 0
	for _, ev := range col.Events() {
		if ev.Kind == trace.KindRecover {
			recovers++
			if ev.Inst != 1 {
				t.Fatalf("recover event on instance %d, want crashed instance 1", ev.Inst)
			}
		}
	}
	if recovers != m.SwapRecovered {
		t.Fatalf("recover events %d != SwapRecovered %d", recovers, m.SwapRecovered)
	}
}

// A permanent crash with a zero retry budget terminally fails the
// stranded requests; with session handles they abort with ErrFailed.
func TestChaosRetryBudgetExhaustionFailsSessions(t *testing.T) {
	plan := &faults.Plan{
		Seed:        3,
		Crashes:     []faults.Crash{{Inst: 1, AtSec: 1}}, // permanent: no DownSec
		RetryBudget: -1,                                  // no retries at all
	}
	c := chaosCluster(t, plan, func(cfg *Config) { cfg.Instances = 1 })
	var sessions []*serving.Session
	for _, r := range chaosReqs(6, 20, 13) {
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Stuck() != 0 {
		t.Fatalf("liveness violated: %d unaccounted", m.Stuck())
	}
	if m.Failed == 0 {
		t.Fatal("permanent crash with no retry budget failed nothing")
	}
	if n := liveRecords(c); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	failed := 0
	for _, s := range sessions {
		if !s.Finished() {
			t.Fatalf("session %d not finished after drain", s.ID())
		}
		if _, err := s.Completion(); errors.Is(err, serving.ErrFailed) {
			failed++
		}
	}
	if failed != m.Failed {
		t.Fatalf("%d sessions ended ErrFailed, metrics say %d", failed, m.Failed)
	}
}

// Session-mode churn: crashes with restarts and live sessions — every
// session reaches a terminal state and re-dispatched requests complete
// on survivors with honest Attempts counts.
func TestChaosSessionsSurviveRedispatch(t *testing.T) {
	c := chaosCluster(t, churnPlan(41), nil)
	var sessions []*serving.Session
	for _, r := range chaosReqs(24, 8, 7) {
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Stuck() != 0 {
		t.Fatalf("liveness violated: %d unaccounted", m.Stuck())
	}
	if n := liveRecords(c); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	redispatched := 0
	for _, s := range sessions {
		if !s.Finished() {
			t.Fatalf("session %d not finished after drain", s.ID())
		}
		cp, err := s.Completion()
		if err != nil {
			if !errors.Is(err, serving.ErrFailed) {
				t.Fatalf("session %d ended with unexpected error %v", s.ID(), err)
			}
			continue
		}
		if cp.Attempts > 1 {
			redispatched++
			if len(cp.RetryUs) == 0 {
				t.Fatalf("req %d attempts %d but empty retry record", cp.Req.ID, cp.Attempts)
			}
		}
	}
	if m.Redispatches > 0 && redispatched == 0 && m.Failed == 0 {
		t.Fatal("re-dispatches happened but no completion shows Attempts > 1")
	}
}

// Stuck must treat terminally-failed requests as accounted for — the
// regression the Failed field fixes.
func TestStuckCountsFailedAsAccounted(t *testing.T) {
	m := Metrics{Dispatched: 10, Completed: 7, Cancelled: 1, Failed: 2}
	if got := m.Stuck(); got != 0 {
		t.Fatalf("Stuck() = %d with full terminal accounting, want 0", got)
	}
	m.Failed = 0
	if got := m.Stuck(); got != 2 {
		t.Fatalf("Stuck() = %d with 2 unaccounted, want 2", got)
	}
}

// The degraded-instance penalty must steer least-loaded routing away
// from a slowed instance until healthy instances are much busier.
func TestRouterDownWeightsDegraded(t *testing.T) {
	p := NewLeastLoaded()
	snaps := []Snapshot{
		{ID: 0, Running: 2, Degraded: true},
		{ID: 1, Running: 5},
	}
	if got := p.Pick(workload.Request{}, snaps); got != 1 {
		t.Fatalf("picked degraded instance over a busier healthy one (got %d)", got)
	}
	// but a degraded instance still wins against a far busier fleet
	snaps = []Snapshot{
		{ID: 0, Running: 0, Degraded: true},
		{ID: 1, Running: 40},
	}
	if got := p.Pick(workload.Request{}, snaps); got != 0 {
		t.Fatalf("idle degraded instance should beat a saturated healthy one (got %d)", got)
	}
}
