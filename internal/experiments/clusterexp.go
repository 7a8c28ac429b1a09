package experiments

import (
	"fmt"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// ClusterRouting goes beyond the paper's single-instance evaluation
// (DESIGN.md §7): a 4-instance cluster under Poisson arrivals with a
// prefix-heavy workload, comparing routing policies at increasing arrival
// rates for vLLM and DiffKV serving traits. Prefix-affinity routing keeps
// shared system prompts hot on their affine instance, cutting TTFT; DiffKV
// traits shift the saturation knee right because compressed caches admit
// larger batches.
func ClusterRouting(o Opts) []*Table {
	o.norm()
	rates := []float64{2, 6, 12}
	horizon := 60.0
	if o.Fast {
		rates = []float64{4, 10}
		horizon = 25
	}
	methods := []struct {
		name   string
		traits baselines.ServingTraits
	}{
		{"vLLM", baselines.TraitsVLLM},
		{"DiffKV", baselines.TraitsDiffKV(0.3)},
	}
	pc := workload.PrefixConfig{Groups: 16, PrefixLen: 768, SharedFrac: 0.9}

	var out []*Table
	for _, method := range methods {
		t := &Table{
			Title: fmt.Sprintf("Cluster routing: 4x L40 Llama3-8B, MMLU prefix-heavy — %s traits", method.name),
			Header: []string{"rate(req/s)", "policy", "ttft-p50(s)", "ttft-p95(s)",
				"tpot-p95(s)", "goodput(req/s)", "util", "imbalance", "hit-frac", "shed"},
			Notes: "prefix-affinity keeps shared prefixes hot on their affine instance",
		}
		// every (rate, policy) cell is an independent cluster simulation:
		// fan the grid out across the worker pool, emit rows in grid order
		policies := cluster.Policies()
		metrics := make([]cluster.Metrics, len(rates)*len(policies))
		o.forEach(len(metrics), func(i int) {
			rate := rates[i/len(policies)]
			policy := policies[i%len(policies)]
			cfg := cluster.Config{
				Instances:     4,
				Policy:        policy,
				MaxQueueDepth: 128,
				Seed:          o.Seed,
			}
			cfg.Engine.Model = synth.Llama3_8B
			cfg.Engine.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
			cfg.Engine.Traits = method.traits
			cfg.Engine.MaxGenLen = 256
			cfg.Engine.PrefixCacheGroups = 8
			reqs := workload.NewRequestGen(workload.MMLU, 256, o.Seed+seedOf(method.name)+uint64(rate*10)).
				PoissonShared(rate, horizon, pc)
			_, metrics[i] = runCluster(cfg, reqs, fmt.Sprintf("cluster-routing: %s %s at %.1f req/s", method.name, policy, rate))
		})
		for i, m := range metrics {
			t.AddRow(f1(rates[i/len(policies)]), policies[i%len(policies)],
				f3(m.TTFT.P50), f3(m.TTFT.P95), f3(m.TPOT.P95),
				f2(m.GoodputReqPerSec), pct(m.MeanUtilization),
				f3(m.LoadImbalanceCV), pct(m.PrefixCacheHitFrac),
				fmt.Sprintf("%d", m.Rejected))
		}
		out = append(out, t)
	}
	return out
}
