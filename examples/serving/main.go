// Serving: dynamic-workload comparison between vLLM and DiffKV under
// Poisson arrivals (Fig. 16 scenario) — DiffKV's compressed cache admits
// larger batches, so it sustains higher request rates before queueing
// delays blow up.
package main

import (
	"fmt"
	"log"

	"diffkv"
)

func main() {
	model := diffkv.Llama3_8B
	cluster := diffkv.NewCluster(diffkv.L40(), 1)

	fmt.Printf("Dynamic workload: %s on 1x %s, GSM8K-like requests\n\n",
		model.Name, cluster.Device.Name)
	fmt.Printf("%-12s %-18s %-18s\n", "rate(req/s)", "vLLM (s/token)", "DiffKV (s/token)")

	for _, rate := range []float64{0.5, 1, 2, 5} {
		row := fmt.Sprintf("%-12.1f", rate)
		for _, method := range []string{"vLLM", "DiffKV"} {
			m, err := diffkv.MethodByName(method)
			if err != nil {
				log.Fatal(err)
			}
			cfg := diffkv.ServerConfig{
				Model:   model,
				Cluster: cluster,
				Traits:  m.ServingTraits(0.3),
				Seed:    11,
			}
			if method == "DiffKV" {
				cfg.UseManager = true // real paged memory manager
				cfg.HiFrac, cfg.LoFrac = 0.2, 0.25
			}
			srv, err := diffkv.NewServer(cfg)
			if err != nil {
				log.Fatal(err)
			}
			reqs := diffkv.NewRequestGen(diffkv.BenchGSM8K, 1024, uint64(rate*10)).
				Poisson(rate, 120)
			res, err := srv.Run(reqs)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %-18.3f", res.AvgPerTokenLatency)
		}
		fmt.Println(row)
	}
	fmt.Println("\nDiffKV's smaller KV footprint admits more concurrent requests,")
	fmt.Println("deferring the queueing knee to higher request rates (paper Fig. 16).")
}
