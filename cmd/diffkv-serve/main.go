// Command diffkv-serve runs the serving simulator on a chosen model,
// method and workload and prints throughput/latency metrics with the
// per-phase component breakdown. The flags are a thin translation onto
// one diffkv.Scenario; -scenario replaces them with a spec file.
//
// Usage:
//
//	diffkv-serve -model Llama3-8B -method DiffKV -bench MATH -requests 64
//	diffkv-serve -model QwQ-32B -method vLLM -gpus 2 -rate 0.5 -seconds 120
//	diffkv-serve -scenario scenario.json
//	diffkv-serve -model Llama3-8B -method DiffKV -dump-scenario > scenario.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"diffkv"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "load the full configuration from a scenario JSON file (overrides the other flags)")
		dump         = flag.Bool("dump-scenario", false, "print the flags as a scenario JSON spec and exit (exits 1 on a spec that would not build)")
		modelName    = flag.String("model", "Llama3-8B", "model name")
		method       = flag.String("method", "DiffKV", "registered serving method")
		benchName    = flag.String("bench", "MATH", "workload benchmark")
		gpus         = flag.Int("gpus", 1, "tensor-parallel GPUs")
		requests     = flag.Int("requests", 64, "closed-loop request count (ignored with -rate)")
		rate         = flag.Float64("rate", 0, "Poisson arrival rate (req/s); 0 = closed loop")
		seconds      = flag.Float64("seconds", 120, "Poisson horizon")
		maxGen       = flag.Int("maxgen", 4096, "generation limit")
		memFrac      = flag.Float64("memfrac", 0.3, "DiffKV resident memory fraction")
		preempt      = flag.String("preempt", "recompute", "preemption recovery policy")
		hostGB       = flag.Float64("hostmem", 0, "host-memory offload tier size in GiB (0 disables)")
		reserve      = flag.Float64("reserve", 0, "memory reserve fraction (0 = default 0.1; raise to oversubscribe KV)")
		seed         = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	var sc *diffkv.Scenario
	if *scenarioPath != "" {
		var err error
		if sc, err = diffkv.LoadScenario(*scenarioPath); err != nil {
			log.Fatal(err)
		}
	} else {
		sc = &diffkv.Scenario{
			Model:         *modelName,
			Method:        *method,
			MemFrac:       *memFrac,
			GPUs:          *gpus,
			MaxGenLen:     *maxGen,
			MemoryReserve: *reserve,
			Preemption:    *preempt,
			HostMemoryGB:  *hostGB,
			Workload: diffkv.WorkloadSpec{
				Bench:      *benchName,
				Requests:   *requests,
				RatePerSec: *rate,
			},
			Seed: *seed,
		}
		if *rate > 0 {
			sc.Workload.Requests = 0
			sc.Workload.Seconds = *seconds
		}
	}
	if *dump {
		// a dumped spec must build: refuse what Build would refuse
		if err := sc.Validate(); err != nil {
			log.Fatal(err)
		}
		data, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}

	st, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	if st.Server == nil {
		log.Fatal("diffkv-serve drives a single instance; use diffkv-cluster for scenarios with a cluster spec")
	}
	reqs := st.Requests()
	res, err := st.Server.Run(reqs)
	if err != nil {
		log.Fatal(err)
	}

	benchLabel := "trace"
	if st.Benchmark != nil {
		benchLabel = st.Benchmark.Name
	}
	fmt.Printf("%s | %s | %s | %d GPU(s) | %d requests\n",
		st.Model.Name, sc.Method, benchLabel, st.Scenario.GPUs, len(reqs))
	fmt.Printf("  throughput:        %.0f tokens/s\n", res.Throughput)
	fmt.Printf("  goodput:           %.0f tokens/s (completed requests only)\n", res.GoodputTokensPerSec)
	fmt.Printf("  avg batch size:    %.1f\n", res.AvgBatch)
	fmt.Printf("  per-token latency: %.4f s (incl. queueing)\n", res.AvgPerTokenLatency)
	fmt.Printf("  completed:         %d in %.1fs simulated\n", res.Completed, res.ElapsedSeconds)
	if res.Preemptions > 0 || res.Offload.SwapOuts > 0 {
		fmt.Printf("  preemptions:       %d (%s recovery)\n", res.Preemptions, st.Scenario.Preemption)
	}
	if m := res.Offload; m.SwapOuts > 0 || m.PrefixSpills > 0 {
		fmt.Printf("  offload:           %d swaps out / %d in | %.1f MB moved | %.1f ms PCIe (%.1f ms stalled) | %d thrash\n",
			m.SwapOuts, m.SwapIns,
			float64(m.SwapOutBytes+m.SwapInBytes)/(1<<20),
			res.OffloadTransferSeconds*1e3, res.OffloadStallSeconds*1e3, m.ThrashEvents)
		if m.PrefixSpills > 0 {
			fmt.Printf("  host prefix tier:  %d spills, %d hits (%d tokens)\n",
				m.PrefixSpills, m.PrefixHits, m.PrefixHitTokens)
		}
	}

	printPhase := func(name string, sched, mem, comp, exec, off float64) {
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
	printPhase("prompt", float64(res.Prompt.Scheduler), float64(res.Prompt.MemMgmt),
		float64(res.Prompt.Compressor), float64(res.Prompt.ModelExec), float64(res.Prompt.Offload))
	printPhase("generation", float64(res.Gen.Scheduler), float64(res.Gen.MemMgmt),
		float64(res.Gen.Compressor), float64(res.Gen.ModelExec), float64(res.Gen.Offload))
}
