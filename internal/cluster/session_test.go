package cluster

import (
	"context"
	"errors"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/gpusim"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func sessionCfg(instances int) Config {
	return Config{
		Instances: instances,
		Engine: serving.Config{
			Model:   synth.Llama3_8B,
			Cluster: gpusim.NewCluster(gpusim.L40(), 1),
			Traits:  baselines.TraitsVLLM,
		},
		Policy: PolicyRoundRobin,
		Seed:   17,
	}
}

// TestClusterSessions drives a cluster through the session API: requests
// opened online with IDs the cluster assigns from its own range before
// routing (fleet-unique across instances), one cancelled mid-flight, the
// rest draining, with the metrics accounting exactly — Cancelled
// tracked, liveness (Stuck == 0) preserved.
func TestClusterSessions(t *testing.T) {
	c, err := New(sessionCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*serving.Session
	for i := 0; i < 6; i++ {
		s, err := c.Open(context.Background(),
			workload.Request{PromptLen: 256, GenLen: 32})
		if err != nil {
			t.Fatal(err)
		}
		if want := clusterAutoIDBase + 1 + i; s.ID() != want {
			t.Fatalf("session %d got ID %d, want %d", i, s.ID(), want)
		}
		sessions = append(sessions, s)
	}
	// interleave: advance a few steps, then cancel one session online
	for i := 0; i < 3; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sessions[4].Cancel()
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Submitted != 6 || m.Dispatched != 6 {
		t.Fatalf("submitted %d dispatched %d", m.Submitted, m.Dispatched)
	}
	if m.Completed != 5 || m.Cancelled != 1 {
		t.Fatalf("completed %d cancelled %d", m.Completed, m.Cancelled)
	}
	if m.Stuck() != 0 {
		t.Fatalf("stuck %d", m.Stuck())
	}
	if n := liveRecords(c); n != 0 {
		t.Fatalf("%d request records left after drain", n)
	}
	if _, err := sessions[4].Completion(); !errors.Is(err, serving.ErrCancelled) {
		t.Fatalf("cancelled session error = %v", err)
	}
	for i, s := range sessions {
		if i == 4 {
			continue
		}
		if _, err := s.Completion(); err != nil {
			t.Fatalf("session %d failed: %v", i, err)
		}
	}
	// round-robin spread both instances
	for i, is := range m.PerInstance {
		if is.Dispatched != 3 {
			t.Fatalf("instance %d dispatched %d, want 3", i, is.Dispatched)
		}
	}
}

// TestMetricsSnapshotsDoNotAlias takes Metrics mid-drive, drains, takes it
// again, and requires the first snapshot's per-instance values unchanged:
// a returned Metrics belongs to its holder.
func TestMetricsSnapshotsDoNotAlias(t *testing.T) {
	c, err := New(sessionCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Open(context.Background(), workload.Request{PromptLen: 256, GenLen: 32}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	mid := c.Metrics()
	busy := mid.PerInstance[0].BusySeconds
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	end := c.Metrics()
	if end.PerInstance[0].BusySeconds <= busy {
		t.Fatalf("instance 0 busy %v s at the end, %v s mid-drive: the drain did no work", end.PerInstance[0].BusySeconds, busy)
	}
	if got := mid.PerInstance[0].BusySeconds; got != busy {
		t.Fatalf("mid-drive Metrics changed under its holder: busy %v s became %v s", busy, got)
	}
}

// TestClusterOpenSheds verifies admission control on the session path:
// once every instance queue is at the bound, Open returns
// ErrAllSaturated and the reject is accounted.
func TestClusterOpenSheds(t *testing.T) {
	cfg := sessionCfg(2)
	cfg.MaxQueueDepth = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opened, shed := 0, 0
	for i := 0; i < 8; i++ {
		_, err := c.Open(context.Background(), workload.Request{PromptLen: 64, GenLen: 8})
		switch {
		case err == nil:
			opened++
		case errors.Is(err, ErrAllSaturated):
			shed++
		default:
			t.Fatal(err)
		}
	}
	if opened != 4 || shed != 4 {
		t.Fatalf("opened %d shed %d, want 4/4 at queue bound 2 x 2 instances", opened, shed)
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Rejected != 4 || m.Completed != 4 || m.Stuck() != 0 {
		t.Fatalf("rejected %d completed %d stuck %d", m.Rejected, m.Completed, m.Stuck())
	}
}

// TestClusterRunAndOpenExclusive pins the driving-mode contract.
func TestClusterRunAndOpenExclusive(t *testing.T) {
	c, err := New(sessionCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(context.Background(), workload.Request{PromptLen: 64, GenLen: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil); err == nil {
		t.Fatal("Run after Open must error")
	}
	c2, err := New(sessionCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Open(context.Background(), workload.Request{PromptLen: 64, GenLen: 8}); err == nil {
		t.Fatal("Open after Run must error")
	}
}

// TestStatsHostBytesIsHostTierOccupancy: the host bytes the cluster
// feeds telemetry (/debug/telemetry, diffkv-top) are the host tier's
// occupancy, so cancelling every session, swapped ones included, brings
// them to zero at once — unlike the swap traffic counters, which a
// cancel never lowers.
func TestStatsHostBytesIsHostTierOccupancy(t *testing.T) {
	c, err := New(Config{
		Instances: 1,
		Engine: serving.Config{
			Model: synth.Llama3_8B, Cluster: gpusim.NewCluster(gpusim.L40(), 1),
			Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
			HiFrac: 0.25, LoFrac: 0.3, MemoryReserve: 0.985, MaxGenLen: 2048,
			PreemptPolicy: "swap", HostMemoryBytes: 2 << 30,
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*serving.Session
	for i, r := range workload.NewRequestGen(workload.MATH, 2048, 11).CoTBatch(20) {
		r.ID = 300 + i
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	hostBytes := func() int64 {
		return serving.ObservationFromStats(c.Stats()).PerInstance[0].HostBytes
	}
	for c.Stats().Swapped == 0 {
		if !hasWork(c) {
			t.Fatal("run drained without any swap-out; oversubscription recipe broken")
		}
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hostBytes(); got <= 0 {
		t.Fatalf("host bytes = %d with a sequence swapped out", got)
	}
	for _, s := range sessions {
		s.Cancel()
	}
	if got := hostBytes(); got != 0 {
		t.Fatalf("host bytes = %d after cancelling every session", got)
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := hostBytes(); got != 0 {
		t.Fatalf("host bytes = %d after the drain", got)
	}
}

// TestClusterOpenArrivesAtFleetClock opens a session on an idle instance
// after another instance has run ahead: its arrival is the fleet clock
// at Open, not the lagging instance's, so it cannot run in the simulated
// past.
func TestClusterOpenArrivesAtFleetClock(t *testing.T) {
	c, err := New(sessionCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(context.Background(), workload.Request{ID: 1, PromptLen: 256, GenLen: 32}); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	openedUs := float64(c.Clock())
	if openedUs <= 0 {
		t.Fatal("the first session advanced no clock")
	}
	// round-robin places the second session on instance 1, still at 0
	s, err := c.Open(context.Background(), workload.Request{ID: 2, PromptLen: 256, GenLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	if c.Engines()[1].OpenSessions() != 1 {
		t.Fatal("the second session did not land on the idle instance")
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Completion()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Req.ArrivalUs < openedUs {
		t.Fatalf("session opened at fleet clock %.0f µs arrives at %.0f µs", openedUs, cp.Req.ArrivalUs)
	}
	if cp.FirstTokenUs <= openedUs {
		t.Fatalf("session opened at %.0f µs had its first token at %.0f µs", openedUs, cp.FirstTokenUs)
	}
}

// TestClusterDrainContextStopsOnDeadContext: a drain whose own context is
// already done returns the context's error between events and leaves the
// work pending.
func TestClusterDrainContextStopsOnDeadContext(t *testing.T) {
	c, err := New(sessionCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(context.Background(), workload.Request{PromptLen: 128, GenLen: 64}); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.DrainContext(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("DrainContext with dead context = %v", err)
	}
	if !hasWork(c) {
		t.Fatal("a drain with a dead context should leave work pending")
	}
}

// TestStatsOpenSessionsCountsSessionsBetweenEngines checks Stats'
// open-session count against the sessions not yet finished after every
// event, the count /metrics and /healthz serve. It must include the
// sessions that are on no engine: KV on the wire from a prefill to a
// decode instance, and crash orphans waiting out their re-dispatch
// backoff.
func TestStatsOpenSessionsCountsSessionsBetweenEngines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(tr *transit) *Cluster
		reqs  []workload.Request
		// between reports whether sessions were ever on no engine
		between func(tr *transit) bool
	}{
		{"wire", func(tr *transit) *Cluster {
			return newDisaggCluster(t, func(cfg *Config) { cfg.Tracer = tr })
		}, []workload.Request{
			{PromptLen: 512, GenLen: 64}, {PromptLen: 512, GenLen: 64},
			{PromptLen: 384, GenLen: 48}, {PromptLen: 256, GenLen: 32},
		}, func(tr *transit) bool { return tr.peakWire >= 2 }},
		{"backoff", func(tr *transit) *Cluster {
			return chaosCluster(t, churnPlan(41), func(cfg *Config) { cfg.Tracer = tr })
		}, chaosReqs(24, 8, 7), func(tr *transit) bool { return tr.peakBackoff > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTransit()
			c := tc.build(tr)
			var sessions []*serving.Session
			for _, r := range tc.reqs {
				s, err := c.Open(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, s)
			}
			for k := 0; ; k++ {
				open := 0
				for _, s := range sessions {
					if !s.Finished() {
						open++
					}
				}
				if got := c.Stats().OpenSessions; got != open {
					t.Fatalf("after event %d: Stats reads %d open sessions, %d are unfinished (%d on the wire, %d in backoff)",
						k, got, open, len(tr.wire), len(tr.backoff))
				}
				if !hasWork(c) {
					break
				}
				if _, err := c.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if !tc.between(tr) {
				t.Fatalf("no session was between engines: peak %d on the wire, %d in backoff", tr.peakWire, tr.peakBackoff)
			}
		})
	}
}
