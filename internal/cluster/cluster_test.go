package cluster

import (
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/gpusim"
	"diffkv/internal/synth"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

func newTestCluster(t *testing.T, policy string, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Instances: 4,
		Policy:    policy,
		Seed:      7,
	}
	cfg.Engine.Model = synth.Llama3_8B
	cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
	cfg.Engine.Traits = baselines.TraitsVLLM
	cfg.Engine.MaxGenLen = 256
	cfg.Engine.PrefixCacheGroups = 8
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// liveRecords counts the per-request state left anywhere in the cluster:
// request records on any engine (serving.Engine.LiveRecords), crash
// orphans awaiting re-dispatch and KV shipments on the wire. Zero after a
// drained run.
func liveRecords(c *Cluster) int {
	n := len(c.redispatchQ)
	for _, e := range c.engines {
		n += e.LiveRecords()
	}
	if c.dg != nil {
		n += len(c.dg.inflight) + c.dg.xq.Len()
	}
	return n
}

func sharedReqs(n int, rate float64, seed uint64) []workload.Request {
	gen := workload.NewRequestGen(workload.MMLU, 256, seed)
	pc := workload.PrefixConfig{Groups: 16, PrefixLen: 768, SharedFrac: 0.9}
	var out []workload.Request
	t := 0.0
	for i := 0; i < n; i++ {
		t += 1e6 / rate
		out = append(out, gen.NextShared(t, pc))
	}
	return out
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := New(Config{Instances: 0}); err == nil {
		t.Fatal("expected error for zero instances")
	}
	cfg := Config{Instances: 2, Policy: "no-such-policy"}
	cfg.Engine.Model = synth.Llama3_8B
	cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
	cfg.Engine.Traits = baselines.TraitsVLLM
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestRoundRobinCyclesDeterministically(t *testing.T) {
	p := NewRoundRobin()
	snaps := []Snapshot{{ID: 0}, {ID: 1}, {ID: 2}}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, p.Pick(workload.Request{ID: i}, snaps))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick sequence %v, want %v", got, want)
		}
	}
	// skips an unroutable (filtered-out) instance
	if p.Pick(workload.Request{}, []Snapshot{{ID: 0}, {ID: 2}}) != 0 {
		t.Fatal("expected wrap to 0")
	}
	if p.Pick(workload.Request{}, []Snapshot{{ID: 0}, {ID: 2}}) != 2 {
		t.Fatal("expected skip to 2")
	}
}

func TestLeastLoadedTieBreakDeterministic(t *testing.T) {
	p := NewLeastLoaded()
	// all equal: lowest ID must win, repeatedly
	equal := []Snapshot{{ID: 3}, {ID: 1}, {ID: 2}}
	for i := 0; i < 3; i++ {
		if got := p.Pick(workload.Request{ID: i}, equal); got != 1 {
			t.Fatalf("tie-break picked %d, want 1", got)
		}
	}
	// queue+running dominates
	snaps := []Snapshot{
		{ID: 0, QueueDepth: 2, Running: 1},
		{ID: 1, QueueDepth: 0, Running: 2},
		{ID: 2, QueueDepth: 1, Running: 2},
	}
	if got := p.Pick(workload.Request{}, snaps); got != 1 {
		t.Fatalf("picked %d, want least-loaded 1", got)
	}
	// resident tokens break in-flight ties
	snaps = []Snapshot{
		{ID: 0, Running: 2, ResidentTokens: 900},
		{ID: 1, Running: 2, ResidentTokens: 400},
	}
	if got := p.Pick(workload.Request{}, snaps); got != 1 {
		t.Fatalf("picked %d, want fewer resident tokens (1)", got)
	}
}

func TestPrefixAffinityRoutesSamePrefixTogether(t *testing.T) {
	p := NewPrefixAffinity(64, 8, 0)
	snaps := []Snapshot{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	r1 := workload.Request{ID: 1, PromptLen: 640, PrefixGroup: 5, PrefixLen: 512}
	first := p.Pick(r1, snaps)
	p.(*prefixAffinity).Observe(r1, first, 0)
	for i := 2; i < 8; i++ {
		r := workload.Request{ID: i, PromptLen: 640, PrefixGroup: 5, PrefixLen: 512}
		got := p.Pick(r, snaps)
		if got != first {
			t.Fatalf("request %d routed to %d, want affine instance %d", i, got, first)
		}
		p.(*prefixAffinity).Observe(r, got, float64(i))
	}
	// a different group has no affinity: falls back to least-loaded, and
	// must not blindly follow group 5's instance
	other := workload.Request{ID: 99, PromptLen: 640, PrefixGroup: 6, PrefixLen: 512}
	loaded := make([]Snapshot, 4)
	copy(loaded, snaps)
	loaded[first].Running = 7 // the affine instance is the busiest
	if got := p.Pick(other, loaded); got == first {
		t.Fatal("unrelated group should not route to the busy affine instance")
	}
}

func TestPrefixAffinitySaturationFallback(t *testing.T) {
	p := NewPrefixAffinity(64, 4, 0)
	snaps := []Snapshot{{ID: 0}, {ID: 1}}
	r := workload.Request{ID: 1, PromptLen: 640, PrefixGroup: 3, PrefixLen: 512}
	affine := p.Pick(r, snaps)
	p.(*prefixAffinity).Observe(r, affine, 0)

	// same prefix, but the affine instance's queue is at the bound:
	// fall back to least-loaded (the other instance)
	sat := []Snapshot{
		{ID: 0, QueueDepth: 0},
		{ID: 1, QueueDepth: 0},
	}
	sat[affine].QueueDepth = 4
	r2 := workload.Request{ID: 2, PromptLen: 640, PrefixGroup: 3, PrefixLen: 512}
	got := p.Pick(r2, sat)
	if got == affine {
		t.Fatalf("saturated affine instance %d must be avoided", affine)
	}
}

func TestKVIndexMatchesAndEviction(t *testing.T) {
	x := NewKVIndex(4)
	ra := workload.Request{ID: 1, PromptLen: 256, PrefixGroup: 1, PrefixLen: 256}
	rb := workload.Request{ID: 2, PromptLen: 256, PrefixGroup: 1, PrefixLen: 128}
	ha := ra.BlockHashes(64) // 4 blocks, all group content
	hb := rb.BlockHashes(64) // 2 shared blocks then unique tail
	if ha[0] != hb[0] || ha[1] != hb[1] {
		t.Fatal("shared prefix blocks must hash equal")
	}
	if ha[2] == hb[2] {
		t.Fatal("diverging blocks must hash differently")
	}
	x.Add(ha, 2, 10)
	m := x.Matches(hb)
	if m[2] != 2 {
		t.Fatalf("instance 2 should match 2 consecutive blocks, got %d", m[2])
	}
	// capacity 4: adding 2 more blocks evicts the oldest
	x.Add(hb[2:], 1, 20)
	if x.Len() != 4 {
		t.Fatalf("index len %d, want capacity 4", x.Len())
	}
}

// TestClusterLiveness asserts the H-Liveness-style invariant for every
// policy: below saturation, every dispatched request completes (no stuck
// requests) and nothing is shed.
func TestClusterLiveness(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			c := newTestCluster(t, policy, func(cfg *Config) {
				cfg.MaxQueueDepth = 64
			})
			reqs := sharedReqs(60, 8, 21) // 8 req/s across 4 instances: below saturation
			m, err := c.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if m.Rejected != 0 {
				t.Fatalf("%d requests shed below saturation", m.Rejected)
			}
			if m.Dispatched != len(reqs) {
				t.Fatalf("dispatched %d of %d", m.Dispatched, len(reqs))
			}
			if m.Stuck() != 0 {
				t.Fatalf("liveness violated: %d dispatched requests never completed", m.Stuck())
			}
			if m.Completed != len(reqs) {
				t.Fatalf("completed %d of %d", m.Completed, len(reqs))
			}
			if n := liveRecords(c); n != 0 {
				t.Fatalf("%d request records left after drain", n)
			}
			if m.TTFT.P95 <= 0 || m.TPOT.P95 <= 0 {
				t.Fatalf("degenerate SLO quantiles: %+v", m)
			}
			if m.MeanUtilization <= 0 || m.MeanUtilization > 1 {
				t.Fatalf("utilization out of range: %v", m.MeanUtilization)
			}
		})
	}
}

// TestAdmissionControlSheds drives a 1-deep queue bound at a high arrival
// rate and checks conservation: submitted = completed + rejected.
func TestAdmissionControlSheds(t *testing.T) {
	c := newTestCluster(t, PolicyLeastLoaded, func(cfg *Config) {
		cfg.MaxQueueDepth = 1
	})
	reqs := sharedReqs(200, 200, 31) // far beyond 4 instances' capacity
	m, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected == 0 {
		t.Fatal("overload with queue bound 1 must shed requests")
	}
	if m.Completed+m.Rejected != len(reqs) {
		t.Fatalf("conservation violated: %d completed + %d rejected != %d submitted",
			m.Completed, m.Rejected, len(reqs))
	}
	if m.Stuck() != 0 {
		t.Fatalf("%d dispatched requests never completed", m.Stuck())
	}
}

// TestPrefixAffinityBeatsRoundRobinTTFT is the headline cluster property:
// on a prefix-heavy workload, cache-aware routing cuts TTFT p95 versus
// round-robin because affine instances keep prefixes hot while round-robin
// thrashes every instance's prefix cache.
func TestPrefixAffinityBeatsRoundRobinTTFT(t *testing.T) {
	run := func(policy string) Metrics {
		c := newTestCluster(t, policy, nil)
		m, err := c.Run(sharedReqs(160, 12, 91))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rr := run(PolicyRoundRobin)
	aff := run(PolicyPrefixAffinity)
	if aff.Stuck() != 0 || rr.Stuck() != 0 {
		t.Fatal("liveness violated")
	}
	if aff.PrefixCacheHitFrac <= rr.PrefixCacheHitFrac {
		t.Fatalf("affinity hit frac %.3f should exceed round-robin %.3f",
			aff.PrefixCacheHitFrac, rr.PrefixCacheHitFrac)
	}
	if aff.TTFT.P95 >= rr.TTFT.P95 {
		t.Fatalf("prefix-affinity TTFT p95 %.4fs should beat round-robin %.4fs",
			aff.TTFT.P95, rr.TTFT.P95)
	}
}

// TestClusterTraceEvents checks dispatch/reject and instance-tagged engine
// events flow through one shared collector.
func TestClusterTraceEvents(t *testing.T) {
	col := trace.NewCollector(0)
	c := newTestCluster(t, PolicyLeastLoaded, func(cfg *Config) {
		cfg.Tracer = col
	})
	reqs := sharedReqs(24, 10, 41)
	m, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Summarize()
	if s.Counts[trace.KindDispatch] != m.Dispatched {
		t.Fatalf("dispatch events %d, want %d", s.Counts[trace.KindDispatch], m.Dispatched)
	}
	if s.Counts[trace.KindComplete] != m.Completed {
		t.Fatalf("complete events %d, want %d", s.Counts[trace.KindComplete], m.Completed)
	}
	seenInst := map[int]bool{}
	for _, ev := range col.Events() {
		if ev.Kind == trace.KindDispatch || ev.Kind == trace.KindAdmit {
			seenInst[ev.Inst] = true
		}
		if ev.Inst < 0 || ev.Inst > 4 {
			t.Fatalf("instance tag out of range: %+v", ev)
		}
	}
	if len(seenInst) < 2 {
		t.Fatal("events should span multiple instances")
	}
}
