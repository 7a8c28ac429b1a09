package experiments

import (
	"fmt"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/faults"
	"diffkv/internal/gpusim"
	"diffkv/internal/offload"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// ChaosRates returns the crash-rate sweep (expected crashes per instance
// per minute) the chaos experiment runs. The checked-in BENCH_PR7
// record used the same rates.
func ChaosRates(fast bool) []float64 {
	if fast {
		return []float64{0, 3}
	}
	// 0 = failure-free baseline; 3 = crashes with recovery windows
	// between them; 5 = heavy churn; 6 = every instance down at once —
	// the retry budget drains and failure accounting takes over
	return []float64{0, 3, 5, 6}
}

// ChaosRun executes one cell of the chaos grid: a 3-instance
// least-loaded cluster of oversubscribed manager-mode DiffKV engines
// (small KV budget, long CoT generations — the setting where crashes
// land on instances holding real in-flight and host-swapped state)
// under rate-sampled fault injection, with crash orphans re-dispatched
// to survivors. The recovery policy decides what a crash costs: with
// swap recovery the host tier doubles as crash insurance — sequences
// swapped out before the crash resume on restart — while recompute
// recovery regenerates everything the crash destroyed.
//
// The faults seed depends on the crash rate but not the policy, so both
// policies face the identical crash/restart timeline at each rate.
func ChaosRun(crashRate float64, policy string, n int, seed uint64) cluster.Metrics {
	var host int64
	if policy != offload.PolicyRecompute {
		host = 2 << 30
	}
	cfg := cluster.Config{
		Instances: 3,
		Policy:    cluster.PolicyLeastLoaded,
		Seed:      seed,
		// interactive SLOs are unreachable under deliberate
		// oversubscription + crashes; the soak SLOs below make goodput
		// track work preserved per second rather than interactivity
		TTFTSLOUs: 30e6,
		TPOTSLOUs: 0.5e6,
	}
	if crashRate > 0 {
		cfg.Faults = &faults.Plan{
			Seed:            seed + seedOf("chaos", fmt.Sprintf("%.1f", crashRate)),
			CrashRatePerMin: crashRate,
			MeanDownSec:     5,
			HorizonSec:      30,
		}
	}
	cfg.Engine = chaosEngine()
	cfg.Engine.PreemptPolicy = policy
	cfg.Engine.HostMemoryBytes = host

	c, err := cluster.New(cfg)
	if err != nil {
		panic(err)
	}
	// same seed across policies at a given rate: identical request sets
	// and crash timelines, fair comparison
	gen := workload.NewRequestGen(workload.MATH, 2048, seed+seedOf("chaos-load"))
	reqs := gen.CoTBatch(n)
	t := 0.0
	for i := range reqs {
		t += 1e6 / 6.0 // 6 req/s paced arrivals
		reqs[i].ArrivalUs = t
	}
	m, err := c.Run(reqs)
	if err != nil {
		panic(err)
	}
	if stuck := m.Stuck(); stuck != 0 {
		panic(fmt.Sprintf("chaos: %s at %.1f crashes/min left %d requests stuck",
			policy, crashRate, stuck))
	}
	return m
}

// chaosEngine is the shared oversubscribed engine shape for the chaos
// grid (mirrors the offload experiment's pressure setting).
func chaosEngine() (cfg serving.Config) {
	cfg.Model = synth.Llama3_8B
	cfg.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
	cfg.Traits = baselines.TraitsDiffKV(0.3)
	cfg.UseManager = true
	cfg.HiFrac, cfg.LoFrac = 0.25, 0.3
	cfg.MemoryReserve = 0.985
	cfg.MaxGenLen = 2048
	return cfg
}

// Chaos goes beyond the paper's failure-free evaluation (DESIGN.md §13):
// deterministic fault injection across a cluster of oversubscribed
// DiffKV instances. The first table sweeps crash rate x recovery policy
// — goodput, P99 TTFT and the recovery ledger (re-dispatches,
// swap-recovered sequences, KV bytes destroyed). The second isolates
// the headline claim: at each crash rate, the goodput delta of swap
// recovery over recompute recovery — the host tier carrying swapped
// sequences through a crash-with-restart instead of regenerating them.
func Chaos(o Opts) []*Table {
	o.norm()
	rates := ChaosRates(o.Fast)
	n := 36
	if o.Fast {
		n = 18
	}
	policies := []string{offload.PolicyRecompute, offload.PolicySwap}

	t1 := &Table{
		Title: "Chaos: crash injection on a 3x L40 DiffKV cluster — MATH CoT, oversubscribed KV, least-loaded routing",
		Header: []string{"crash/min", "recovery", "done", "failed", "redisp",
			"swap-rec", "kv-lost(MB)", "ttft-p99(s)", "tok/s", "goodput(req/s)"},
		Notes: "identical crash timelines per rate; failed = retry budget exhausted after repeated crashes",
	}
	metrics := make([]cluster.Metrics, len(rates)*len(policies))
	o.forEach(len(metrics), func(i int) {
		metrics[i] = ChaosRun(rates[i/len(policies)], policies[i%len(policies)], n, o.Seed)
	})
	for i, m := range metrics {
		t1.AddRow(f1(rates[i/len(policies)]), policies[i%len(policies)],
			fmt.Sprintf("%d/%d", m.Completed, m.Submitted),
			fmt.Sprintf("%d", m.Failed), fmt.Sprintf("%d", m.Redispatches),
			fmt.Sprintf("%d", m.SwapRecovered),
			f1(float64(m.LostKVBytes)/(1<<20)),
			f3(m.TTFT.P99), f1(m.ThroughputTokensPerSec), f2(m.GoodputReqPerSec))
	}

	t2 := &Table{
		Title:  "Chaos: swap-recovery goodput delta over recompute recovery (host tier as crash insurance)",
		Header: []string{"crash/min", "recompute(req/s)", "swap(req/s)", "delta(req/s)", "delta"},
		Notes:  "positive delta = sequences the host tier carried through a crash resumed instead of regenerating",
	}
	for r := range rates {
		rec := metrics[r*len(policies)]
		swp := metrics[r*len(policies)+1]
		delta := swp.GoodputReqPerSec - rec.GoodputReqPerSec
		rel := "n/a"
		if rec.GoodputReqPerSec > 0 {
			rel = pct(delta / rec.GoodputReqPerSec)
		}
		t2.AddRow(f1(rates[r]), f2(rec.GoodputReqPerSec), f2(swp.GoodputReqPerSec),
			f2(delta), rel)
	}

	return []*Table{t1, t2}
}
