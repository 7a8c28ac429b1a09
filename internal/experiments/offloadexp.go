package experiments

import (
	"fmt"

	"diffkv/internal/baselines"
	"diffkv/internal/gpusim"
	"diffkv/internal/offload"
	"diffkv/internal/quant"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// OffloadReserves returns the oversubscription levels (MemoryReserve
// fractions shrinking the KV budget) the offload experiment sweeps — at
// least two, per the acceptance criterion. The checked-in BENCH_PR3
// record used the same levels.
func OffloadReserves() []float64 { return []float64{0.975, 0.985} }

// OffloadRun executes one cell of the offload grid: a closed-loop
// chain-of-thought workload (near-limit generations, the paper's Fig. 17
// setting) at the given oversubscription level under the given recovery
// policy. Every admitted sequence is deep into generation when memory
// pressure hits, so a recompute victim throws away thousands of tokens
// while a swap victim resumes where it stopped. The checked-in
// BENCH_PR3 record holds full-size cells of this same run.
func OffloadRun(reserve float64, policy string, batch, maxGen int, seed uint64) serving.Result {
	var host int64
	if policy != offload.PolicyRecompute {
		host = 4 << 30
	}
	cfg := serving.Config{
		Model:   synth.Llama3_8B,
		Cluster: gpusim.NewCluster(gpusim.L40(), 1),
		Traits:  baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3,
		MemoryReserve:   reserve,
		PreemptPolicy:   policy,
		HostMemoryBytes: host,
		MaxGenLen:       maxGen,
		Seed:            seed,
	}
	eng, err := serving.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	// same seed across policies at a given level: identical request sets,
	// fair comparison
	reqs := workload.NewRequestGen(workload.MATH, maxGen,
		seed+seedOf("offload", fmt.Sprintf("%.3f", reserve))).CoTBatch(batch)
	res, err := eng.Run(reqs)
	if err != nil {
		panic(err)
	}
	if res.Completed != len(reqs) {
		panic(fmt.Sprintf("offload: %s at reserve %.3f completed %d of %d",
			policy, reserve, res.Completed, len(reqs)))
	}
	return res
}

// Offload goes beyond the paper's single-instance evaluation (DESIGN.md
// §9): KV memory oversubscription with swap-instead-of-recompute
// preemption. The first table compares recovery policies at two
// oversubscription levels — swap preserves generated work that recompute
// throws away, so useful-token goodput rises while PCIe traffic appears in
// the breakdown. The second table isolates why compression composes with
// offload: a K4V2-resident sequence crosses PCIe in a fraction of the
// FP16 bytes.
func Offload(o Opts) []*Table {
	o.norm()
	reserves := OffloadReserves()
	batch, maxGen := 20, 2048
	if o.Fast {
		batch, maxGen = 16, 1536
	}
	policies := offload.Policies()

	t1 := &Table{
		Title: "Offload: preemption recovery under KV oversubscription — Llama3-8B, L40, MATH CoT closed loop",
		Header: []string{"kv-budget", "policy", "goodput(tok/s)", "throughput(tok/s)",
			"preempts", "swaps", "swap-MB", "xfer(ms)", "stall(ms)", "thrash"},
		Notes: "goodput counts completed requests' tokens only; recompute regenerates what it discarded",
	}
	results := make([]serving.Result, len(reserves)*len(policies))
	o.forEach(len(results), func(i int) {
		results[i] = OffloadRun(reserves[i/len(policies)], policies[i%len(policies)], batch, maxGen, o.Seed)
	})
	for i, res := range results {
		reserve := reserves[i/len(policies)]
		m := res.Offload
		t1.AddRow(pct(1-reserve), policies[i%len(policies)],
			f1(res.GoodputTokensPerSec), f1(res.Throughput),
			fmt.Sprintf("%d", res.Preemptions), fmt.Sprintf("%d", m.SwapOuts),
			f1(float64(m.SwapOutBytes)/(1<<20)),
			f1(res.OffloadTransferSeconds*1e3), f1(res.OffloadStallSeconds*1e3),
			fmt.Sprintf("%d", m.ThrashEvents))
	}

	t2 := &Table{
		Title:  "Offload: PCIe bytes to swap one 1024-token sequence (per KV head, dim 128)",
		Header: []string{"resident tier", "bytes/token", "seq-KB", "PCIe(us)"},
		Notes:  "DiffKV's compression directly cuts swap cost; compress-deeper shrinks it further",
	}
	for _, r := range OffloadSwapBytes() {
		t2.AddRow(r.Tier, f1(r.BytesPerToken), f1(float64(r.SeqBytes)/1024), f1(r.PCIeUs))
	}

	return []*Table{t1, t2}
}

// SwapBytesRow is one tier's PCIe swap cost for a 1024-token sequence.
type SwapBytesRow struct {
	Tier          string  `json:"tier"`
	BytesPerToken float64 `json:"bytes_per_token"`
	SeqBytes      int     `json:"seq_bytes"`
	PCIeUs        float64 `json:"pcie_us"`
}

// OffloadSwapBytes computes the per-tier PCIe cost of swapping one
// 1024-token sequence (per KV head, dim 128, L40 PCIe), the numbers the
// offload experiment table and the checked-in BENCH_PR3 record report.
func OffloadSwapBytes() []SwapBytesRow {
	dev := gpusim.L40()
	row := func(name string, hi, lo quant.Precision, hiTok, loTok int) SwapBytesRow {
		seqBytes := hiTok*hi.TokenBytes(128) + loTok*lo.TokenBytes(128)
		return SwapBytesRow{
			Tier:          name,
			BytesPerToken: float64(seqBytes) / float64(hiTok+loTok),
			SeqBytes:      seqBytes,
			PCIeUs:        float64(dev.PCIeTransfer(float64(seqBytes))),
		}
	}
	return []SwapBytesRow{
		row("FP16", quant.FP16, quant.FP16, 1024, 0),
		row("K8V4+K4V2 (DiffKV mix)", quant.K8V4, quant.K4V2, 512, 512),
		row("K4V2 (compress-swap)", quant.K8V4, quant.K4V2, 0, 1024),
	}
}
