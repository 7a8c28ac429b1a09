// Command diffkv-cluster runs the serving simulator on 1..N serving
// engines behind a router, under Poisson or closed-loop arrivals with
// shared prompt prefixes, and prints per-policy SLO metrics (TTFT/TPOT
// percentiles, goodput, utilization, load imbalance, shed count)
// followed by the engines' throughput, batch size and per-phase step
// breakdown. The flags are a thin translation onto one diffkv.Scenario;
// -scenario replaces them with a spec file, with or without a cluster
// section. One instance has nothing to route between, so it runs one
// policy row instead of sweeping the registry.
//
// Usage:
//
//	diffkv-cluster -instances 4 -rate 10 -seconds 60
//	diffkv-cluster -instances 1 -rate 0 -requests 64 -method DiffKV -bench MATH
//	diffkv-cluster -model QwQ-32B -gpus 2 -instances 1 -rate 0 -requests 4
//	diffkv-cluster -policy prefix-affinity -method DiffKV -trace trace.json
//	diffkv-cluster -policy all -bench MMLU -groups 16 -prefixlen 768
//	diffkv-cluster -chaos 2 -hostmem 4 -preempt swap     # fault injection
//	diffkv-cluster -disagg 2:2 -method DiffKV            # prefill/decode pools
//	diffkv-cluster -scenario scenario.json
//	diffkv-cluster -cpuprofile cpu.pprof    # then: go tool pprof -top cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"

	"diffkv"
	"diffkv/internal/offload"
)

// parseDisagg parses the -disagg value "P:D" into pool sizes.
func parseDisagg(s string) (*diffkv.DisaggPools, error) {
	var p, d int
	if n, err := fmt.Sscanf(s, "%d:%d", &p, &d); n != 2 || err != nil {
		return nil, fmt.Errorf("bad -disagg %q (want prefill:decode, e.g. 2:2)", s)
	}
	return &diffkv.DisaggPools{PrefillInstances: p, DecodeInstances: d}, nil
}

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "load the full configuration from a scenario JSON file (overrides the other flags; a cluster section without routing sweeps the registry)")
		dump         = flag.Bool("dump-scenario", false, "print the flags as a scenario JSON spec and exit (exits 1 on a spec that would not build)")
		instances    = flag.Int("instances", 4, "number of serving instances")
		modelName    = flag.String("model", "Llama3-8B", "model name")
		gpus         = flag.Int("gpus", 1, "tensor-parallel GPUs per instance")
		method       = flag.String("method", "vLLM", "registered serving method")
		benchName    = flag.String("bench", "MMLU", "workload benchmark")
		policy       = flag.String("policy", "all", "routing policy name, or \"all\" to sweep the registry")
		rate         = flag.Float64("rate", 10, "Poisson arrival rate (req/s, whole cluster); 0 = closed loop")
		seconds      = flag.Float64("seconds", 60, "arrival horizon")
		requests     = flag.Int("requests", 64, "closed-loop request count (with -rate 0)")
		groups       = flag.Int("groups", 16, "shared-prefix groups (0 = no shared prefixes)")
		prefixLen    = flag.Int("prefixlen", 768, "shared prefix length (tokens)")
		sharedFrac   = flag.Float64("sharedfrac", 0.9, "fraction of requests in a prefix group")
		cacheG       = flag.Int("cachegroups", 8, "per-instance prefix-cache capacity (groups)")
		maxQueue     = flag.Int("maxqueue", 128, "admission bound: per-instance queue depth (0 = never shed)")
		maxGen       = flag.Int("maxgen", 256, "generation limit")
		memFrac      = flag.Float64("memfrac", 0.3, "DiffKV resident memory fraction")
		preempt      = flag.String("preempt", "recompute", "preemption recovery policy: "+strings.Join(offload.Policies(), ", "))
		hostGB       = flag.Float64("hostmem", 0, "per-instance host offload tier in GiB (0 disables)")
		reserve      = flag.Float64("reserve", 0, "memory reserve fraction, below 1 (0 = default; raise to oversubscribe KV)")
		ttftSLO      = flag.Float64("ttft-slo", 2.0, "TTFT SLO (seconds) for goodput")
		tpotSLO      = flag.Float64("tpot-slo", 0.1, "TPOT SLO (seconds/token) for goodput")
		tracePath    = flag.String("trace", "", "write the trace to this file as Perfetto trace-event JSON (raw events embedded, for diffkv-trace)")
		seed         = flag.Uint64("seed", 42, "random seed")
		chaosRate    = flag.Float64("chaos", 0, "fault injection: random crashes per instance per minute (0 disables)")
		chaosDown    = flag.Float64("chaos-down", 5, "mean crash downtime in seconds (with -chaos)")
		pcieErr      = flag.Float64("pcie-err", 0, "fault injection: per-transfer PCIe host<->device error probability")
		retryBudget  = flag.Int("retry-budget", 0, "re-dispatch retries per request after crashes (0 = default 3, negative = none)")
		disaggSplit  = flag.String("disagg", "", "prefill/decode disaggregation pools as prefill:decode (e.g. 2:2; excludes -chaos)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run (every policy row, setup included) to this file")
	)
	flag.Parse()

	var base *diffkv.Scenario
	if *scenarioPath != "" {
		var err error
		if base, err = diffkv.LoadScenario(*scenarioPath); err != nil {
			log.Fatal(err)
		}
	} else {
		base = &diffkv.Scenario{
			Model:             *modelName,
			Method:            *method,
			MemFrac:           *memFrac,
			GPUs:              *gpus,
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
		if *rate <= 0 {
			base.Workload.Requests = *requests
			base.Workload.Seconds = 0
		}
		if *groups > 0 {
			base.Workload.Prefix = &diffkv.PrefixConfig{
				Groups: *groups, PrefixLen: *prefixLen, SharedFrac: *sharedFrac,
			}
		}
		if *chaosRate > 0 || *pcieErr > 0 {
			base.Faults = &diffkv.FaultPlan{
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

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	fleet := 1
	if base.Cluster != nil {
		fleet = base.Cluster.Instances
	}
	// "" keeps the scenario's own routing: a spec runs the routing it
	// pins (omit routing in a cluster section to sweep the registry), and
	// one instance has nothing to route between
	policies := []string{*policy}
	switch {
	case *scenarioPath != "" && (base.Cluster == nil || base.Cluster.Routing != ""),
		*policy == "all" && fleet == 1:
		policies = []string{""}
	case *policy == "all":
		policies = diffkv.RoutingPolicies()
	}

	header := fmt.Sprintf("%-16s %8s %11s %11s %11s %9s %14s %6s %10s %8s %6s",
		"policy", "done", "ttft-p50(s)", "ttft-p95(s)", "ttft-p99(s)", "tpot-p95", "goodput(req/s)", "util", "imbalance", "hit-frac", "shed")
	for i, pol := range policies {
		sc := *base
		if pol != "" {
			spec := *base.Cluster
			spec.Routing = pol
			sc.Cluster = &spec
		}
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
		reqs := st.Requests()
		if i == 0 {
			printHeader(st, len(reqs))
			fmt.Println(header)
			fmt.Println(strings.Repeat("-", len(header)))
		}
		m, err := st.Cluster.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-16s %4d/%-3d %11.3f %11.3f %11.3f %9.4f %14.2f %5.0f%% %10.3f %7.1f%% %6d\n",
			m.Policy, m.Completed, m.Submitted,
			m.TTFT.P50, m.TTFT.P95, m.TTFT.P99, m.TPOT.P95,
			m.GoodputReqPerSec, 100*m.MeanUtilization, m.LoadImbalanceCV,
			100*m.PrefixCacheHitFrac, m.Rejected)
		printEngines(st.Cluster.Engines())
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
			if err := collector.WritePerfetto(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  trace: %d events -> %s\n", len(collector.Events()), name)
		}
	}
}

// startCPUProfile starts a CPU profile into a new file at path and
// returns the call that ends it and closes the file.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}, nil
}

// printHeader describes the run: fleet shape, model, method and the
// request stream after scenario defaults.
func printHeader(st *diffkv.Stack, requests int) {
	sc := st.Scenario
	bench, load := "trace", fmt.Sprintf("%d requests", requests)
	if st.Benchmark != nil {
		bench = st.Benchmark.Name
	}
	if w := sc.Workload; w.RatePerSec > 0 {
		load = fmt.Sprintf("%.1f req/s for %.0fs", w.RatePerSec, w.Seconds)
	}
	pc := diffkv.PrefixConfig{}
	if sc.Workload.Prefix != nil {
		pc = *sc.Workload.Prefix
	}
	fmt.Printf("%d instances | %s | %s | %s | %d GPU(s) each | %s | %d prefix groups x %d tokens (%.0f%% shared)\n\n",
		len(st.Cluster.Engines()), sc.Model, sc.Method, bench, sc.GPUs, load,
		pc.Groups, pc.PrefixLen, 100*pc.SharedFrac)
}

// printEngines prints the engines' serving results summed over
// instances — rates and batch sizes add across the fleet, per-token
// latency is the completion-weighted mean — and the per-phase step
// breakdown of where simulated step time went.
func printEngines(engines []*diffkv.Server) {
	var sum diffkv.ServingResult
	var latency float64
	for _, e := range engines {
		r := e.Result()
		sum.Throughput += r.Throughput
		sum.GoodputTokensPerSec += r.GoodputTokensPerSec
		sum.AvgBatch += r.AvgBatch
		sum.Completed += r.Completed
		latency += r.AvgPerTokenLatency * float64(r.Completed)
		sum.Prompt.Add(r.Prompt)
		sum.Gen.Add(r.Gen)
	}
	if sum.Completed > 0 {
		latency /= float64(sum.Completed)
	}
	fmt.Printf("  engines: throughput %.0f tokens/s | goodput %.0f tokens/s | avg batch %.1f | per-token latency %.4f s (incl. queueing)\n",
		sum.Throughput, sum.GoodputTokensPerSec, sum.AvgBatch, latency)
	p, g := sum.Prompt, sum.Gen
	printPhase("prompt", float64(p.Scheduler), float64(p.MemMgmt),
		float64(p.Compressor), float64(p.ModelExec), float64(p.Offload))
	printPhase("generation", float64(g.Scheduler), float64(g.MemMgmt),
		float64(g.Compressor), float64(g.ModelExec), float64(g.Offload))
}

// printPhase prints one phase's step breakdown as shares of its time.
func printPhase(name string, sched, mem, comp, exec, off float64) {
	tot := sched + mem + comp + exec + off
	if tot == 0 {
		return
	}
	line := fmt.Sprintf("  %s breakdown: scheduler %.1f%% | mem-mgmt %.1f%% | compressor %.1f%% | model %.1f%%",
		name, 100*sched/tot, 100*mem/tot, 100*comp/tot, 100*exec/tot)
	if off > 0 {
		line += fmt.Sprintf(" | offload %.1f%%", 100*off/tot)
	}
	fmt.Println(line)
}
