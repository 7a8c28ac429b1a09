package cluster

import (
	"fmt"
	"testing"

	"diffkv/internal/faults"
	"diffkv/internal/workload"
)

// TestNextTieBreakOrder hand-populates all four event sources at one
// shared timestamp, the queue of scheduled work with a KV shipment and a
// crash re-dispatch, and peels them off one at a time: next must pick
// fault, then the shipment, then the re-dispatch, then arrival, then the
// lowest-index live instance step. Peeling covers every adjacent pair,
// including a shipment beside a fault and a re-dispatch, which no public
// Config can build (New rejects faults + disaggregation).
func TestNextTieBreakOrder(t *testing.T) {
	const atUs = 1e6
	cfg := sessionCfg(4)
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Inst: 4, AtSec: atUs / 1e6}}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev := c.next(); ev.class != evNone {
		t.Fatalf("fresh cluster: next = %+v, want evNone (an idle cluster does not churn the fault timeline)", ev)
	}

	req := func(id int) workload.Request {
		return workload.Request{ID: id, ArrivalUs: atUs, PromptLen: 64, GenLen: 4}
	}
	c.schedule(atUs, keyRedispatch, nil)
	c.schedule(atUs, 1, nil) // a shipment of request 1
	c.pending = []workload.Request{req(2)}
	// every poke behind the cluster's back is followed by the touch the
	// cluster's own paths make after changing an engine
	c.engines[1].Submit(req(3)) // instance 0 stays idle: the step heap must not hold it
	c.touch(1)
	c.engines[2].Submit(req(4))
	c.touch(2)
	c.engines[3].Submit(req(5))
	c.touch(3)

	popDue := func() { c.dueQ = c.dueQ[1:] }
	peel := []struct {
		want   eventClass
		inst   int
		key    int // the head of the scheduled work (evDue only)
		remove func()
	}{
		{evFault, 0, 0, func() { c.inj.Pop() }},
		{evDue, 0, 1, popDue},
		{evDue, 0, keyRedispatch, popDue},
		{evArrival, 0, 0, func() { c.pending = nil }},
		{evStep, 1, 0, func() { c.health[1] = Down; c.touch(1) }}, // a down instance does not step
		{evStep, 2, 0, nil},
	}
	for _, p := range peel {
		ev := c.next()
		if ev.class != p.want || ev.inst != p.inst || ev.atUs != atUs {
			t.Fatalf("next = %+v, want class %d inst %d at %v", ev, p.want, p.inst, float64(atUs))
		}
		if p.want == evDue && c.dueQ[0].key != p.key {
			t.Fatalf("scheduled work head has key %d, want %d", c.dueQ[0].key, p.key)
		}
		if at, ok := c.NextTime(); !ok || float64(at) != atUs {
			t.Fatalf("NextTime = %v %v, want %v", at, ok, float64(atUs))
		}
		if p.remove != nil {
			p.remove()
		}
	}

	// time beats class: the lowest-priority class wins when it is earlier
	c.engines[0].Submit(workload.Request{ID: 6, ArrivalUs: atUs - 1, PromptLen: 64, GenLen: 4})
	c.touch(0)
	c.pending = []workload.Request{req(7)}
	if ev := c.next(); ev.class != evStep || ev.inst != 0 || ev.atUs != atUs-1 {
		t.Fatalf("earlier step vs arrival: next = %+v, want instance 0 step at %v", ev, float64(atUs-1))
	}
}

// firedEvents drains a batch of arrivals through the same next/fire pair
// Run drives, returning every fired event in firing order. reqs must
// already be in arrival order (Run's stable sort is then a no-op).
func firedEvents(t *testing.T, c *Cluster, reqs []workload.Request) []event {
	t.Helper()
	c.hasRun = true
	c.pending = reqs
	c.acc.m.Submitted = len(reqs)
	var fired []event
	for c.steps < maxClusterSteps {
		ev := c.next()
		if ev.class == evNone {
			break
		}
		fired = append(fired, ev)
		if _, err := c.fire(ev); err != nil {
			t.Fatal(err)
		}
	}
	return fired
}

// TestEventClockMonotone pins the core loop's clock invariant (BLIS
// INV-3): over a batch run the fired event times never decrease — every
// source re-arms at or after the event that re-armed it. The three
// clusters mirror the checked-in testdata/scenario_golden.json,
// scenario_chaos.json and scenario_disagg.json specs (package diffkv
// imports this one, so the specs themselves cannot be loaded here).
func TestEventClockMonotone(t *testing.T) {
	cases := []struct {
		name string
		// classes must each fire at least once, or the case is not
		// exercising the sources it exists for
		classes []eventClass
		build   func() (*Cluster, []workload.Request)
	}{
		{"golden-class", []eventClass{evFault, evDue, evArrival, evStep}, func() (*Cluster, []workload.Request) {
			// prefix-affinity over shared prefixes, swap preemption, one
			// crash-with-restart, one slowdown, PCIe transfer faults
			c := chaosCluster(t, &faults.Plan{
				Seed:          42,
				Crashes:       []faults.Crash{{Inst: 1, AtSec: 4, DownSec: 3}},
				Slowdowns:     []faults.Slowdown{{Inst: 2, AtSec: 2, DurSec: 4, Factor: 2.5}},
				PCIeErrorRate: 0.01, RetryBudget: 3, RetryBaseMs: 50,
			}, func(cfg *Config) {
				cfg.Instances = 2
				cfg.Policy = PolicyPrefixAffinity
				cfg.MaxQueueDepth = 64
				cfg.Engine.PrefixCacheGroups = 8
				cfg.Engine.HostMemoryBytes = 4 << 30
			})
			gen := workload.NewRequestGen(workload.MATH, 2048, 42)
			pc := workload.PrefixConfig{Groups: 4, PrefixLen: 512, SharedFrac: 0.8}
			var reqs []workload.Request
			for at := 0.0; at < 10e6; at += 1e6 / 4 {
				reqs = append(reqs, gen.NextShared(at, pc))
			}
			return c, reqs
		}},
		{"chaos", []eventClass{evFault, evDue, evArrival, evStep}, func() (*Cluster, []workload.Request) {
			plan := churnPlan(17)
			plan.RetryBudget = 3
			c := chaosCluster(t, plan, func(cfg *Config) { cfg.MaxQueueDepth = 128 })
			return c, chaosReqs(36, 6, 17)
		}},
		{"disagg", []eventClass{evDue, evArrival, evStep}, func() (*Cluster, []workload.Request) {
			c := newDisaggCluster(t, func(cfg *Config) {
				cfg.MaxQueueDepth = 128
				cfg.Seed = 17
			})
			return c, disaggReqs(80, 10, 17)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, reqs := tc.build()
			fired := firedEvents(t, c, reqs)
			seen := map[eventClass]bool{}
			for i, ev := range fired {
				seen[ev.class] = true
				if i > 0 && ev.atUs < fired[i-1].atUs {
					t.Fatalf("event %d %+v fired after event %d %+v: the clock went backwards",
						i, ev, i-1, fired[i-1])
				}
			}
			for _, class := range tc.classes {
				if !seen[class] {
					t.Fatalf("class %d never fired in %d events", class, len(fired))
				}
			}
			m := c.finishMetrics()
			if m.Completed == 0 || m.Stuck() != 0 {
				t.Fatalf("drain did not finish the run: completed %d stuck %d", m.Completed, m.Stuck())
			}
			// the hand drain above is Run: same metrics from a twin cluster
			twin, reqs2 := tc.build()
			want, err := twin.Run(reqs2)
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed != want.Completed || m.Failed != want.Failed ||
				m.ElapsedSeconds != want.ElapsedSeconds || m.E2E != want.E2E {
				t.Fatalf("hand drain diverged from Run:\n got %+v\nwant %+v", m, want)
			}
		})
	}
}

// BenchmarkClusterRun times one batch Run of the fleet-scaling command,
// `diffkv-cluster -method vLLM -policy least-loaded -maxgen 256 -seconds
// 60 -rate 6N -instances N`, at three fleet widths, and reports host µs
// per completion: the load per instance is fixed, so the figure stays
// near flat across N only while a cluster event costs O(log N), not O(N).
func BenchmarkClusterRun(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			reqs := workload.NewRequestGen(workload.MMLU, 256, 42).PoissonShared(float64(6*n), 60,
				workload.PrefixConfig{Groups: 16, PrefixLen: 768, SharedFrac: 0.9})
			completed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := newTestCluster(b, PolicyLeastLoaded, func(cfg *Config) {
					cfg.Instances = n
					cfg.MaxQueueDepth = 128
					cfg.Seed = 42
				})
				b.StartTimer()
				m, err := c.Run(reqs)
				if err != nil {
					b.Fatal(err)
				}
				completed += m.Completed
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(completed), "µs/completion")
		})
	}
}
