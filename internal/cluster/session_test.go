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
// opened online, one cancelled mid-flight, the rest draining, with the
// metrics accounting exactly — Cancelled tracked, liveness (Stuck == 0)
// preserved.
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
