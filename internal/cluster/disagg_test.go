package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/disagg"
	"diffkv/internal/faults"
	"diffkv/internal/gpusim"
	"diffkv/internal/quant"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// newDisaggCluster builds a 4-instance manager-mode cluster split 2:2
// into prefill and decode pools under the disagg-aware policy.
func newDisaggCluster(t *testing.T, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Instances: 4,
		Policy:    PolicyDisaggAware,
		Seed:      7,
		Disagg:    &disagg.Config{PrefillInstances: 2, DecodeInstances: 2},
	}
	cfg.Engine.Model = synth.Llama3_8B
	cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
	cfg.Engine.Traits = baselines.TraitsDiffKV(0.3)
	cfg.Engine.UseManager = true
	cfg.Engine.HiFrac = 0.2
	cfg.Engine.LoFrac = 0.25
	cfg.Engine.MaxGenLen = 256
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func disaggReqs(n int, rate float64, seed uint64) []workload.Request {
	gen := workload.NewRequestGen(workload.MMLU, 256, seed)
	var out []workload.Request
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += 1e6 / rate
		out = append(out, gen.Next(tm))
	}
	return out
}

func TestDisaggConfigValidation(t *testing.T) {
	// pools exceeding the fleet
	if _, err := New(func() Config {
		cfg := Config{Instances: 2, Seed: 1, Disagg: &disagg.Config{PrefillInstances: 2, DecodeInstances: 2}}
		cfg.Engine.Model = synth.Llama3_8B
		cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
		cfg.Engine.Traits = baselines.TraitsVLLM
		return cfg
	}()); err == nil {
		t.Fatal("expected error for pools exceeding the fleet")
	}
	// empty pool
	if err := (disagg.Config{PrefillInstances: 0, DecodeInstances: 2}).Validate(4); err == nil {
		t.Fatal("expected error for an empty prefill pool")
	}
	// faults + disagg is rejected (transfer re-routing is not modeled)
	if _, err := New(func() Config {
		cfg := Config{Instances: 4, Seed: 1, Disagg: &disagg.Config{PrefillInstances: 2, DecodeInstances: 2}}
		cfg.Engine.Model = synth.Llama3_8B
		cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
		cfg.Engine.Traits = baselines.TraitsVLLM
		cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Inst: 1, AtSec: 1}}}
		return cfg
	}()); err == nil {
		t.Fatal("expected error combining fault injection with disaggregation")
	}
}

func TestDisaggRoles(t *testing.T) {
	cfg := disagg.Config{PrefillInstances: 1, DecodeInstances: 2}
	want := []disagg.Role{disagg.RolePrefill, disagg.RoleDecode, disagg.RoleDecode, disagg.RoleMixed}
	if got := cfg.Roles(4); !reflect.DeepEqual(got, want) {
		t.Fatalf("roles %v, want %v", got, want)
	}
}

func TestDisaggSplit(t *testing.T) {
	pre, handoff := disagg.Split(workload.Request{ID: 9, PromptLen: 100, GenLen: 40, ArrivalUs: 5})
	if !handoff || pre.GenLen != 1 || pre.ID != 9 || pre.ArrivalUs != 5 {
		t.Fatalf("bad split: %+v handoff=%v", pre, handoff)
	}
	// a single-token request is whole: no handoff
	if _, handoff := disagg.Split(workload.Request{ID: 1, GenLen: 1}); handoff {
		t.Fatal("GenLen 1 must not hand off")
	}
}

// TestDisaggTransferQueueOrder pins the order of the cluster's scheduled
// work under every push order: due time first, then the key — a KV
// shipment's request ID breaks ties among shipments, shipments fire
// before crash re-dispatches due at the same instant, and re-dispatches
// keep the order they were scheduled in.
func TestDisaggTransferQueueOrder(t *testing.T) {
	items := []struct {
		name string
		atUs float64
		key  int
	}{
		{"ship 4", 10, 4}, {"ship 1", 20, 1}, {"ship 3", 20, 3}, {"ship 9", 20, 9}, {"ship 2", 35, 2},
		{"redispatch a", 20, keyRedispatch}, {"redispatch b", 20, keyRedispatch},
	}
	want := []string{"ship 4", "ship 1", "ship 3", "ship 9", "redispatch a", "redispatch b", "ship 2"}
	// redispatch a is always scheduled before redispatch b
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {5, 4, 3, 2, 6, 1, 0}, {2, 5, 4, 0, 3, 1, 6}} {
		c := newDisaggCluster(t, nil)
		var got []string
		for _, i := range order {
			it := items[i]
			c.schedule(it.atUs, it.key, func() error {
				got = append(got, it.name)
				return nil
			})
		}
		if at, ok := c.NextTime(); !ok || at != 10 {
			t.Fatalf("push order %v: next due %v (%v), want 10", order, at, ok)
		}
		for {
			ev := c.next()
			if ev.class == evNone {
				break
			}
			if ev.class != evDue {
				t.Fatalf("push order %v: fired %+v, only scheduled work is pending", order, ev)
			}
			if _, err := c.fire(ev); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("push order %v: fired %q, want %q", order, got, want)
		}
	}
}

// TestDisaggRunCompletesAndShips is the cluster-level liveness pin: every
// dispatched request completes exactly once (on the decode side), each
// multi-token request ships exactly one compressed KV payload from the
// prefill pool to the decode pool, and the per-link ledger telescopes to
// the total.
func TestDisaggRunCompletesAndShips(t *testing.T) {
	c := newDisaggCluster(t, nil)
	reqs := disaggReqs(48, 10, 21)
	m, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stuck() != 0 {
		t.Fatalf("%d dispatched requests never completed", m.Stuck())
	}
	if m.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", m.Completed, len(reqs))
	}
	if n := liveRecords(c); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	handoffs := 0
	for _, r := range reqs {
		if r.GenLen > 1 {
			handoffs++
		}
	}
	if m.Disagg == nil {
		t.Fatal("disagg metrics missing")
	}
	if m.Disagg.Transfers != handoffs {
		t.Fatalf("transfers %d, want one per multi-token request (%d)", m.Disagg.Transfers, handoffs)
	}
	if m.Disagg.KVBytesShipped <= 0 || m.Disagg.XferSeconds <= 0 {
		t.Fatalf("degenerate shipment accounting: %+v", m.Disagg)
	}
	var linkBytes int64
	var linkN int
	for _, lb := range m.Disagg.Links {
		if lb.From < 1 || lb.From > 2 || lb.To < 3 || lb.To > 4 {
			t.Fatalf("link %+v crosses pool boundaries (prefill 1-2, decode 3-4)", lb)
		}
		linkBytes += lb.Bytes
		linkN += lb.Transfers
	}
	if linkBytes != m.Disagg.KVBytesShipped || linkN != m.Disagg.Transfers {
		t.Fatalf("ledger does not telescope: %d/%d bytes, %d/%d transfers",
			linkBytes, m.Disagg.KVBytesShipped, linkN, m.Disagg.Transfers)
	}
	for i, is := range m.PerInstance {
		wantRole := "prefill"
		if i >= 2 {
			wantRole = "decode"
		}
		if is.Role != wantRole {
			t.Fatalf("instance %d role %q, want %q", i+1, is.Role, wantRole)
		}
	}
	// requests enter through the prefill pool, leave through the decode pool
	if m.PerInstance[2].Completed+m.PerInstance[3].Completed != m.Completed {
		t.Fatalf("completions should all land on the decode pool: %+v", m.PerInstance)
	}
	if m.PerInstance[0].Dispatched+m.PerInstance[1].Dispatched != m.Dispatched {
		t.Fatalf("dispatches should all land on the prefill pool: %+v", m.PerInstance)
	}
}

// TestDisaggDeterministic pins bit-identical timelines: two runs of the
// same seeded scenario yield identical metrics and identical trace
// event streams.
func TestDisaggDeterministic(t *testing.T) {
	run := func() (Metrics, []trace.Event) {
		col := trace.NewCollector(0)
		c := newDisaggCluster(t, func(cfg *Config) { cfg.Tracer = col })
		m, err := c.Run(disaggReqs(32, 12, 33))
		if err != nil {
			t.Fatal(err)
		}
		return m, col.Events()
	}
	m1, ev1 := run()
	m2, ev2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("metrics differ across identical runs:\n%+v\n%+v", m1, m2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("trace streams differ across identical runs (%d vs %d events)", len(ev1), len(ev2))
	}
}

// TestDisaggPhaseTelescoping pins the cross-instance accounting: a
// handed-off request's phase breakdown — prefill-side phases, the
// xfer:inst wire time, decode-side queue and decode — sums to its
// end-to-end latency within 1µs, and TTFT stays honestly attributed to
// the prefill instance (first token precedes the KV shipment).
func TestDisaggPhaseTelescoping(t *testing.T) {
	col := trace.NewCollector(0)
	c := newDisaggCluster(t, func(cfg *Config) { cfg.Tracer = col })
	reqs := disaggReqs(24, 10, 55)
	ctx := context.Background()
	for _, r := range reqs {
		if _, err := c.Open(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	var done int
	for {
		cps, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range cps {
			done++
			e2e := cp.DoneUs - cp.Req.ArrivalUs
			if d := math.Abs(cp.Phases.TotalUs() - e2e); d > 1 {
				t.Fatalf("request %d: phases sum %.3fµs != e2e %.3fµs (|Δ|=%.3fµs > 1µs)",
					cp.Req.ID, cp.Phases.TotalUs(), e2e, d)
			}
			if cp.Req.GenLen > 1 {
				if cp.Phases.XferUs <= 0 {
					t.Fatalf("request %d: handed-off completion has no xfer:inst time: %+v",
						cp.Req.ID, cp.Phases)
				}
				if cp.Inst != 3 && cp.Inst != 4 {
					t.Fatalf("request %d completed on instance %d, want decode pool (3-4)",
						cp.Req.ID, cp.Inst)
				}
			}
			if cp.FirstTokenUs <= cp.Req.ArrivalUs || cp.FirstTokenUs >= cp.DoneUs {
				t.Fatalf("request %d: TTFT %v outside (%v, %v)",
					cp.Req.ID, cp.FirstTokenUs, cp.Req.ArrivalUs, cp.DoneUs)
			}
		}
		if !hasWork(c) {
			break
		}
	}
	if done != len(reqs) {
		t.Fatalf("completed %d of %d", done, len(reqs))
	}
	// honest TTFT: the first token exists before its KV ships
	ship := map[int]float64{}
	for _, ev := range col.Events() {
		if ev.Kind == trace.KindKVShip {
			ship[ev.Seq] = ev.TimeUs
			if ev.Bytes <= 0 || ev.DurUs <= 0 {
				t.Fatalf("kv_ship without payload accounting: %+v", ev)
			}
			if ev.Note == "" {
				t.Fatalf("kv_ship without link note: %+v", ev)
			}
		}
	}
	if len(ship) == 0 {
		t.Fatal("no kv_ship events traced")
	}
}

// TestDisaggCompressionCutsWireBytes pins the paper's economics at the
// fleet level: the same workload on the same pool split ships at most
// 1/3 the KV bytes when pages are stored K4V2 instead of FP16.
func TestDisaggCompressionCutsWireBytes(t *testing.T) {
	run := func(hi, lo quant.Precision) int64 {
		c := newDisaggCluster(t, func(cfg *Config) {
			cfg.Engine.HiPrec = hi
			cfg.Engine.LoPrec = lo
		})
		m, err := c.Run(disaggReqs(32, 10, 77))
		if err != nil {
			t.Fatal(err)
		}
		if m.Stuck() != 0 {
			t.Fatalf("%d stuck requests", m.Stuck())
		}
		return m.Disagg.KVBytesShipped
	}
	fp16 := run(quant.FP16, quant.FP16)
	k4v2 := run(quant.K4V2, quant.K4V2)
	if 3*k4v2 > fp16 {
		t.Fatalf("K4V2 wire bytes %d not <= 1/3 of FP16 %d", k4v2, fp16)
	}
}

// TestCancelAcrossHandoff cancels a session at each of the five points of
// a disaggregated request's life, by context and by Session.Cancel alike.
// Wherever the cancel lands the request is counted exactly once — as
// Cancelled, never also Completed — adopts no pages afterwards, and
// leaves no per-request state on any engine or in the coordinator.
func TestCancelAcrossHandoff(t *testing.T) {
	// each point is a condition on the cluster holding only the target
	// request, reached by firing events one at a time
	running := func(c *Cluster, lo, hi int) bool {
		for _, e := range c.engines[lo:hi] {
			if e.RunningCount() > 0 {
				return true
			}
		}
		return false
	}
	queued := func(c *Cluster, lo, hi int) bool {
		for _, e := range c.engines[lo:hi] {
			if e.QueueDepth() > 0 {
				return true
			}
		}
		return false
	}
	points := []struct {
		name    string
		reached func(c *Cluster) bool
	}{
		{"prefill queue", func(c *Cluster) bool { return queued(c, 0, 2) }},
		{"prefill running", func(c *Cluster) bool { return running(c, 0, 2) }},
		{"on the wire", func(c *Cluster) bool { return len(c.dueQ) > 0 }},
		{"decode queue", func(c *Cluster) bool { return queued(c, 2, 4) }},
		{"decode running", func(c *Cluster) bool { return running(c, 2, 4) }},
	}
	for _, pt := range points {
		for _, kind := range []string{"ctx", "Cancel"} {
			t.Run(pt.name+"/"+kind, func(t *testing.T) {
				c := newDisaggCluster(t, nil)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				target, err := c.Open(ctx, workload.Request{PromptLen: 512, GenLen: 64})
				if err != nil {
					t.Fatal(err)
				}
				for !pt.reached(c) {
					if !hasWork(c) {
						t.Fatalf("drained before reaching %q", pt.name)
					}
					if _, err := c.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if kind == "ctx" {
					cancel()
				} else {
					target.Cancel()
				}
				// bystanders opened after the cancel share the fleet with it
				var others []*serving.Session
				for i := 0; i < 3; i++ {
					s, err := c.Open(context.Background(), workload.Request{PromptLen: 256, GenLen: 16})
					if err != nil {
						t.Fatal(err)
					}
					others = append(others, s)
				}
				if err := c.DrainContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				if _, err := target.Completion(); !errors.Is(err, serving.ErrCancelled) {
					t.Fatalf("cancelled session error = %v", err)
				}
				for _, s := range others {
					if _, err := s.Completion(); err != nil {
						t.Fatalf("bystander session failed: %v", err)
					}
				}
				m := c.Metrics()
				if m.Stuck() != 0 || m.Completed+m.Cancelled != m.Dispatched {
					t.Fatalf("stuck %d: dispatched %d, completed %d, cancelled %d",
						m.Stuck(), m.Dispatched, m.Completed, m.Cancelled)
				}
				if m.Cancelled != 1 || m.Completed != len(others) {
					t.Fatalf("cancelled %d completed %d, want 1 and %d", m.Cancelled, m.Completed, len(others))
				}
				for _, is := range c.Stats().PerInstance {
					if is.UsedKVPages != 0 {
						t.Fatalf("instance %d holds %d KV pages after drain", is.Inst, is.UsedKVPages)
					}
				}
				if n := liveRecords(c); n != 0 {
					t.Fatalf("%d request records left after drain", n)
				}
			})
		}
	}
}
