// Offload: swap-instead-of-recompute preemption on an oversubscribed
// engine. A closed-loop chain-of-thought batch outgrows the (deliberately
// tiny) KV budget mid-generation; the three recovery policies handle the
// resulting preemptions differently:
//
//   - recompute throws the victim's KV away and regenerates everything;
//   - swap moves the victim's compressed pages to host memory over PCIe
//     and resumes it where it stopped;
//   - compress-swap first re-quantizes the victim entirely into the
//     low-precision tier, then swaps the smaller payload.
//
// Because DiffKV's tiers are compressed, each swap crosses PCIe in a
// fraction of the FP16 bytes — compression composes with offload.
package main

import (
	"fmt"
	"log"

	"diffkv"
)

func main() {
	method, err := diffkv.MethodByName("DiffKV")
	if err != nil {
		log.Fatal(err)
	}
	traits := method.ServingTraits(0.3)

	const (
		batch   = 20
		maxGen  = 2048
		reserve = 0.985 // hold back 98.5% of post-weights memory: ~1.5% KV budget
	)
	fmt.Printf("Llama3-8B on one L40, %d CoT requests (near-%d-token generations), %.1f%% KV budget\n\n",
		batch, maxGen, 100*(1-reserve))
	fmt.Printf("%-14s %14s %16s %9s %7s %9s %10s %7s\n",
		"policy", "goodput(tok/s)", "throughput(tok/s)", "preempts", "swaps", "swap-MB", "PCIe(ms)", "thrash")

	for _, policy := range diffkv.PreemptPolicies() {
		cfg := diffkv.ServerConfig{
			Model:         diffkv.Llama3_8B,
			Cluster:       diffkv.NewCluster(diffkv.L40(), 1),
			Traits:        traits,
			UseManager:    true,
			HiFrac:        0.25,
			LoFrac:        0.3,
			MaxGenLen:     maxGen,
			MemoryReserve: reserve,
			PreemptPolicy: policy,
			Seed:          42,
		}
		if policy != "recompute" {
			cfg.HostMemoryBytes = 4 << 30 // 4 GiB host tier
		}
		srv, err := diffkv.NewServer(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// identical request set per policy: same generator seed
		reqs := diffkv.NewRequestGen(diffkv.BenchMATH, maxGen, 7).CoTBatch(batch)
		res, err := srv.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		m := res.Offload
		fmt.Printf("%-14s %14.1f %16.1f %9d %7d %9.1f %10.1f %7d\n",
			policy, res.GoodputTokensPerSec, res.Throughput,
			res.Preemptions, m.SwapOuts,
			float64(m.SwapOutBytes)/(1<<20), res.OffloadTransferSeconds*1e3,
			m.ThrashEvents)
	}

	fmt.Println("\nrecompute regenerates every preempted token (throughput > goodput);")
	fmt.Println("swap resumes from host memory, so all generated work counts.")
}
