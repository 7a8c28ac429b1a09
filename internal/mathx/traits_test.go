package mathx_test

import (
	"context"
	"runtime"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/mathx"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// Traits-mode serving, cluster_fleet's batch run and gateway_sse's
// session mode, holds no page manager and runs no core sequence, so it
// never reaches the pool: neither starts a helper, at any GOMAXPROCS.
func TestTraitsServingStartsNoHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := cluster.Config{Instances: 8, Policy: cluster.PolicyPrefixAffinity, Seed: 3}
	cfg.Engine.Model = synth.Llama3_8B
	cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
	cfg.Engine.Traits = baselines.TraitsVLLM
	cfg.Engine.MaxGenLen = 256
	cfg.Engine.PrefixCacheGroups = 8
	gen := workload.NewRequestGen(workload.MMLU, 256, 3)
	pc := workload.PrefixConfig{Groups: 16, PrefixLen: 768, SharedFrac: 0.9}
	var reqs []workload.Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, gen.NextShared(float64(i)*2e3, pc))
	}

	mathx.WaitIdle()
	before := mathx.HelpersStarted()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != len(reqs) {
		t.Fatalf("batch run completed %d of %d", m.Completed, len(reqs))
	}

	s, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs[:64] {
		r.ID = 0 // the cluster assigns session IDs
		if _, err := s.Open(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := mathx.HelpersStarted() - before; got != 0 {
		t.Fatalf("traits-mode serving started %d pool helpers, want 0", got)
	}
}
