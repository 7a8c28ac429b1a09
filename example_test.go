package diffkv_test

import (
	"fmt"
	"log"

	"diffkv"
)

// Compress one sequence with DiffKV and inspect fidelity, memory and the
// token-tier breakdown.
func Example() {
	model, err := diffkv.ModelByName("Llama3-8B")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := diffkv.NewEngine(diffkv.EngineConfig{
		Model:  model,
		Params: diffkv.DefaultParams("Llama3-8B"), // αh=1, αl=0.02, W=64
		Seed:   42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// one request: 512 prompt tokens, 512 generated tokens
	res, err := eng.RunSequence(512, 512, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DiffKV quickstart — Llama3-8B, 512+512 tokens")
	fmt.Printf("  attention output error vs FP16: %.3f\n", res.OutputErr)
	fmt.Printf("  KV memory vs vLLM FP16:         %.1f%%\n", 100*res.MemFrac)
	fmt.Printf("  compression ratio:              %.1fx\n", 1/res.MemFrac)
	fmt.Printf("  token tiers: %.0f%% high (K8V4), %.0f%% low (K4V2), %.0f%% pruned\n",
		100*res.Breakdown.High, 100*res.Breakdown.Low, 100*res.Breakdown.Pruned)

	// task-accuracy view through a benchmark profile
	gsm8k, err := diffkv.BenchmarkByName("GSM8K")
	if err != nil {
		log.Fatal(err)
	}
	acc := gsm8k.Accuracy("Llama3-8B", res.OutputErr)
	fmt.Printf("  modeled GSM8K accuracy: %.1f (FP16 reference %.1f)\n",
		acc, gsm8k.FP16["Llama3-8B"])
	// Output:
	// DiffKV quickstart — Llama3-8B, 512+512 tokens
	//   attention output error vs FP16: 0.159
	//   KV memory vs vLLM FP16:         24.5%
	//   compression ratio:              4.1x
	//   token tiers: 32% high (K8V4), 20% low (K4V2), 48% pruned
	//   modeled GSM8K accuracy: 76.3 (FP16 reference 76.3)
}
