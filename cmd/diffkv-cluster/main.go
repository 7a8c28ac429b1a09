// Command diffkv-cluster runs the multi-instance cluster simulator: N
// serving engines behind a router, under Poisson arrivals with shared
// prompt prefixes, and prints per-policy SLO metrics (TTFT/TPOT
// percentiles, goodput, utilization, load imbalance, shed count). The
// flags are a thin translation onto one diffkv.Scenario; -scenario
// replaces them with a spec file.
//
// Usage:
//
//	diffkv-cluster -instances 4 -rate 10 -seconds 60
//	diffkv-cluster -policy prefix-affinity -method DiffKV -trace events.jsonl
//	diffkv-cluster -policy all -bench MMLU -groups 16 -prefixlen 768
//	diffkv-cluster -chaos 2 -hostmem 4 -preempt swap     # fault injection
//	diffkv-cluster -disagg 2:2 -method DiffKV            # prefill/decode pools
//	diffkv-cluster -scenario scenario.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"diffkv"
)

// parseDisagg parses the -disagg value "P:D" into pool sizes.
func parseDisagg(s string) (*diffkv.DisaggSpec, error) {
	var p, d int
	if n, err := fmt.Sscanf(s, "%d:%d", &p, &d); n != 2 || err != nil {
		return nil, fmt.Errorf("bad -disagg %q (want prefill:decode, e.g. 2:2)", s)
	}
	return &diffkv.DisaggSpec{PrefillPool: p, DecodePool: d}, nil
}

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "load the full configuration from a scenario JSON file (overrides the other flags; a spec without routing sweeps the registry)")
		dump         = flag.Bool("dump-scenario", false, "print the flags as a scenario JSON spec and exit (exits 1 on a spec that would not build)")
		instances    = flag.Int("instances", 4, "number of serving instances")
		modelName    = flag.String("model", "Llama3-8B", "model name")
		method       = flag.String("method", "vLLM", "registered serving method")
		benchName    = flag.String("bench", "MMLU", "workload benchmark")
		policy       = flag.String("policy", "all", "routing policy name, or \"all\" to sweep the registry")
		rate         = flag.Float64("rate", 10, "Poisson arrival rate (req/s, whole cluster)")
		seconds      = flag.Float64("seconds", 60, "arrival horizon")
		groups       = flag.Int("groups", 16, "shared-prefix groups (0 = no shared prefixes)")
		prefixLen    = flag.Int("prefixlen", 768, "shared prefix length (tokens)")
		sharedFrac   = flag.Float64("sharedfrac", 0.9, "fraction of requests in a prefix group")
		cacheG       = flag.Int("cachegroups", 8, "per-instance prefix-cache capacity (groups)")
		maxQueue     = flag.Int("maxqueue", 128, "admission bound: per-instance queue depth (0 = never shed)")
		maxGen       = flag.Int("maxgen", 256, "generation limit")
		memFrac      = flag.Float64("memfrac", 0.3, "DiffKV resident memory fraction")
		preempt      = flag.String("preempt", "recompute", "preemption recovery policy")
		hostGB       = flag.Float64("hostmem", 0, "per-instance host offload tier in GiB (0 disables)")
		reserve      = flag.Float64("reserve", 0, "memory reserve fraction (0 = default; raise to oversubscribe KV)")
		ttftSLO      = flag.Float64("ttft-slo", 2.0, "TTFT SLO (seconds) for goodput")
		tpotSLO      = flag.Float64("tpot-slo", 0.1, "TPOT SLO (seconds/token) for goodput")
		tracePath    = flag.String("trace", "", "write trace events as JSON lines to this file")
		seed         = flag.Uint64("seed", 42, "random seed")
		chaosRate    = flag.Float64("chaos", 0, "fault injection: random crashes per instance per minute (0 disables)")
		chaosDown    = flag.Float64("chaos-down", 5, "mean crash downtime in seconds (with -chaos)")
		pcieErr      = flag.Float64("pcie-err", 0, "fault injection: per-transfer PCIe host<->device error probability")
		retryBudget  = flag.Int("retry-budget", 0, "re-dispatch retries per request after crashes (0 = default 3, negative = none)")
		disaggSplit  = flag.String("disagg", "", "prefill/decode disaggregation pools as prefill:decode (e.g. 2:2; excludes -chaos)")
	)
	flag.Parse()

	var base *diffkv.Scenario
	if *scenarioPath != "" {
		var err error
		if base, err = diffkv.LoadScenario(*scenarioPath); err != nil {
			log.Fatal(err)
		}
		if base.Cluster == nil {
			log.Fatal("diffkv-cluster needs a scenario with a cluster spec; use diffkv-serve for single-instance scenarios")
		}
	} else {
		base = &diffkv.Scenario{
			Model:             *modelName,
			Method:            *method,
			MemFrac:           *memFrac,
			MaxGenLen:         *maxGen,
			MemoryReserve:     *reserve,
			PrefixCacheGroups: *cacheG,
			Preemption:        *preempt,
			HostMemoryGB:      *hostGB,
			Workload: diffkv.WorkloadSpec{
				Bench:      *benchName,
				RatePerSec: *rate,
				Seconds:    *seconds,
			},
			Cluster: &diffkv.ClusterSpec{
				Instances:     *instances,
				MaxQueueDepth: *maxQueue,
				TTFTSLOSec:    *ttftSLO,
				TPOTSLOSec:    *tpotSLO,
			},
			Seed: *seed,
		}
		if *groups > 0 {
			base.Workload.Prefix = &diffkv.PrefixConfig{
				Groups: *groups, PrefixLen: *prefixLen, SharedFrac: *sharedFrac,
			}
		}
		if *chaosRate > 0 || *pcieErr > 0 {
			base.Faults = &diffkv.FaultsSpec{
				CrashRatePerMin: *chaosRate,
				MeanDownSec:     *chaosDown,
				HorizonSec:      *seconds, // chaos spans the arrival window
				PCIeErrorRate:   *pcieErr,
				RetryBudget:     *retryBudget,
			}
		}
		if *disaggSplit != "" {
			d, err := parseDisagg(*disaggSplit)
			if err != nil {
				log.Fatal(err)
			}
			base.Disaggregation = d
		}
	}
	if *dump {
		// a dumped spec must build: refuse what Build would refuse
		if err := base.Validate(); err != nil {
			log.Fatal(err)
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}

	var policies []string
	switch {
	case *scenarioPath != "" && base.Cluster.Routing != "":
		// a spec that pins its routing runs exactly that; omit routing in
		// the file to sweep the registry
		policies = []string{base.Cluster.Routing}
	case *policy == "all":
		policies = diffkv.RoutingPolicies()
	default:
		policies = []string{*policy}
	}

	pc := diffkv.PrefixConfig{}
	if base.Workload.Prefix != nil {
		pc = *base.Workload.Prefix
	}
	fmt.Printf("%d instances | %s | %s | %s | %.1f req/s for %.0fs | %d prefix groups x %d tokens (%.0f%% shared)\n\n",
		base.Cluster.Instances, base.Model, base.Method, base.Workload.Bench,
		base.Workload.RatePerSec, base.Workload.Seconds,
		pc.Groups, pc.PrefixLen, 100*pc.SharedFrac)

	header := fmt.Sprintf("%-16s %8s %11s %11s %11s %9s %14s %6s %10s %8s %6s",
		"policy", "done", "ttft-p50(s)", "ttft-p95(s)", "ttft-p99(s)", "tpot-p95", "goodput(req/s)", "util", "imbalance", "hit-frac", "shed")
	fmt.Println(header)
	for range header {
		fmt.Print("-")
	}
	fmt.Println()

	for _, pol := range policies {
		sc := *base
		spec := *base.Cluster
		spec.Routing = pol
		sc.Cluster = &spec
		var collector *diffkv.TraceCollector
		if *tracePath != "" {
			collector = diffkv.NewTraceCollector(1 << 20)
			sc.Tracer = collector
		}

		st, err := sc.Build()
		if err != nil {
			log.Fatal(err)
		}
		// same seed per policy: identical arrival sequences, fair comparison
		m, err := st.Cluster.Run(st.Requests())
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-16s %4d/%-3d %11.3f %11.3f %11.3f %9.4f %14.2f %5.0f%% %10.3f %7.1f%% %6d\n",
			m.Policy, m.Completed, m.Submitted,
			m.TTFT.P50, m.TTFT.P95, m.TTFT.P99, m.TPOT.P95,
			m.GoodputReqPerSec, 100*m.MeanUtilization, m.LoadImbalanceCV,
			100*m.PrefixCacheHitFrac, m.Rejected)
		if m.Preemptions > 0 || m.SwapOutBytes > 0 || m.HostPrefixHits > 0 {
			fmt.Printf("  offload: %d preemptions (%d requests) | %.1f MB swapped out / %.1f MB in | %.1f ms stalled | thrash %.2f | %d host prefix hits\n",
				m.Preemptions, m.PreemptedRequests,
				float64(m.SwapOutBytes)/(1<<20), float64(m.SwapInBytes)/(1<<20),
				m.SwapStallSeconds*1e3, m.ThrashRate, m.HostPrefixHits)
		}
		if d := m.Disagg; d != nil {
			fmt.Printf("  disagg: %d prefill + %d decode instances | %d shipments | %.1f MB over NIC | %.1f ms wire time\n",
				d.PrefillInstances, d.DecodeInstances, d.Transfers,
				float64(d.KVBytesShipped)/(1<<20), d.XferSeconds*1e3)
			for _, l := range d.Links {
				fmt.Printf("    link %d->%d: %d shipments, %.1f MB\n",
					l.From, l.To, l.Transfers, float64(l.Bytes)/(1<<20))
			}
		}
		if m.Crashes > 0 || m.Redispatches > 0 || m.Failed > 0 {
			fmt.Printf("  faults: %d crashes / %d restarts | %d re-dispatched | %d failed | %d swap-recovered | %.1f MB KV lost\n",
				m.Crashes, m.Restarts, m.Redispatches, m.Failed, m.SwapRecovered,
				float64(m.LostKVBytes)/(1<<20))
		}
		if stuck := m.Stuck(); stuck != 0 {
			fmt.Printf("  WARNING: %d dispatched requests never completed (liveness violation)\n", stuck)
		}

		if collector != nil {
			name := *tracePath
			if len(policies) > 1 {
				name = fmt.Sprintf("%s.%s", *tracePath, pol)
			}
			f, err := os.Create(name)
			if err != nil {
				log.Fatal(err)
			}
			if err := collector.WriteJSONL(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  trace: %d events -> %s\n", len(collector.Events()), name)
		}
	}
}
