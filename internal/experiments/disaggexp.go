package experiments

import (
	"fmt"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/disagg"
	"diffkv/internal/gpusim"
	"diffkv/internal/quant"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// DisaggTiers returns the wire-precision sweep the disaggregation
// experiment runs: the KV pages shipped prefill→decode are quantized at
// the engine's tier, so the tier directly prices the transfer.
func DisaggTiers() []quant.Precision {
	return []quant.Precision{quant.FP16, quant.K8V4, quant.K4V2}
}

// DisaggSplits returns the prefill:decode pool splits swept over a
// 4-instance cluster, plus the colocated control encoded as {0, 0}.
func DisaggSplits(fast bool) [][2]int {
	if fast {
		return [][2]int{{0, 0}, {2, 2}}
	}
	return [][2]int{{0, 0}, {1, 3}, {2, 2}, {3, 1}}
}

// DisaggRun executes one cell of the disaggregation grid on a 4x L40
// DiffKV cluster: prefill instances run prompt passes only and ship the
// compressed KV export over the NIC model to a decode-pool instance
// ({0, 0} = colocated control, every instance mixed). The quant tier is
// forced uniform (hi == lo) so the wire bytes per shipped token are the
// tier's exact page footprint.
func DisaggRun(split [2]int, tier quant.Precision, n int, seed uint64) cluster.Metrics {
	cfg := cluster.Config{
		Instances: 4,
		Policy:    cluster.PolicyLeastLoaded,
		Seed:      seed,
		TTFTSLOUs: 2e6,
		TPOTSLOUs: 0.1e6,
	}
	if split[0] > 0 {
		cfg.Policy = cluster.PolicyDisaggAware
		cfg.Disagg = &disagg.Config{PrefillInstances: split[0], DecodeInstances: split[1]}
	}
	cfg.Engine = disaggEngine()
	cfg.Engine.HiPrec, cfg.Engine.LoPrec = tier, tier

	// same seed across splits and tiers: identical request sets, fair
	// comparison
	gen := workload.NewRequestGen(workload.MMLU, 256, seed+seedOf("disagg-load"))
	reqs := make([]workload.Request, n)
	t := 0.0
	for i := range reqs {
		t += 1e6 / 14.0 // 14 req/s paced arrivals
		reqs[i] = gen.Next(t)
	}
	_, m := runCluster(cfg, reqs, fmt.Sprintf("disagg: split %d:%d tier %s", split[0], split[1], tier))
	return m
}

// disaggEngine is the shared engine shape for the disaggregation grid
// (mirrors the cluster disagg tests).
func disaggEngine() (cfg serving.Config) {
	cfg.Model = synth.Llama3_8B
	cfg.Cluster = gpusim.NewCluster(gpusim.L40(), 1)
	cfg.Traits = baselines.TraitsDiffKV(0.3)
	cfg.UseManager = true
	cfg.HiFrac, cfg.LoFrac = 0.2, 0.25
	cfg.MaxGenLen = 256
	return cfg
}

// splitName renders a pool split ("colocated" for the {0, 0} control).
func splitName(split [2]int) string {
	if split[0] == 0 {
		return "colocated"
	}
	return fmt.Sprintf("%d:%d", split[0], split[1])
}

// Disagg goes beyond the paper's single-pool serving (DESIGN.md §16):
// prefill/decode disaggregation with compressed cross-instance KV
// transfer. The first table sweeps pool split x wire tier — completions,
// shipments, wire traffic, P99 TTFT and goodput, with the colocated
// 4-mixed control in the same rows. The second isolates the compression
// economics: at each tier, total wire bytes and the FP16-relative ratio
// — K4V2 ships at most a third of FP16's bytes, which is what makes the
// transfer affordable at all. The third is the analytic per-token wire
// cost straight from the tier's page footprint, independent of workload.
func Disagg(o Opts) []*Table {
	o.norm()
	splits := DisaggSplits(o.Fast)
	tiers := DisaggTiers()
	n := 48
	if o.Fast {
		n = 24
	}

	t1 := &Table{
		Title: "Disaggregation: prefill:decode pool split x wire tier on a 4x L40 DiffKV cluster — MMLU, 14 req/s",
		Header: []string{"split", "tier", "done", "ships", "wire(MB)", "KB/ship",
			"xfer(s)", "ttft-p99(s)", "tok/s", "goodput(req/s)"},
		Notes: "identical request sets per cell; colocated = 4 mixed instances, no transfers",
	}
	metrics := make([]cluster.Metrics, len(splits)*len(tiers))
	o.forEach(len(metrics), func(i int) {
		metrics[i] = DisaggRun(splits[i/len(tiers)], tiers[i%len(tiers)], n, o.Seed)
	})
	for i, m := range metrics {
		ships, wire, xfer := 0, int64(0), 0.0
		if m.Disagg != nil {
			ships, wire, xfer = m.Disagg.Transfers, m.Disagg.KVBytesShipped, m.Disagg.XferSeconds
		}
		perShip := "n/a"
		if ships > 0 {
			perShip = f1(float64(wire) / float64(ships) / (1 << 10))
		}
		t1.AddRow(splitName(splits[i/len(tiers)]), tiers[i%len(tiers)].String(),
			fmt.Sprintf("%d/%d", m.Completed, m.Submitted),
			fmt.Sprintf("%d", ships), f1(float64(wire)/(1<<20)), perShip,
			f3(xfer), f3(m.TTFT.P99), f1(m.ThroughputTokensPerSec),
			f2(m.GoodputReqPerSec))
	}

	t2 := &Table{
		Title:  "Disaggregation: wire-tier economics at the 2:2 split — compression is what makes the transfer affordable",
		Header: []string{"tier", "wire(MB)", "vs FP16", "goodput(req/s)", "colocated(req/s)", "delta"},
		Notes:  "vs FP16 = shipped-byte ratio at identical request sets; delta = disagg goodput minus colocated at the same tier",
	}
	// the 2:2 split is present in both fast and full sweeps
	at := func(split [2]int, tier int) cluster.Metrics {
		for si, s := range splits {
			if s == split {
				return metrics[si*len(tiers)+tier]
			}
		}
		panic("disagg: 2:2 split missing from sweep")
	}
	fp16Wire := at([2]int{2, 2}, 0).Disagg.KVBytesShipped
	for ti, tier := range tiers {
		d, c := at([2]int{2, 2}, ti), at([2]int{0, 0}, ti)
		ratio := "n/a"
		if fp16Wire > 0 {
			ratio = pct(float64(d.Disagg.KVBytesShipped) / float64(fp16Wire))
		}
		t2.AddRow(tier.String(), f1(float64(d.Disagg.KVBytesShipped)/(1<<20)), ratio,
			f2(d.GoodputReqPerSec), f2(c.GoodputReqPerSec),
			f2(d.GoodputReqPerSec-c.GoodputReqPerSec))
	}

	t3 := &Table{
		Title:  "Disaggregation: analytic wire cost per shipped token (unified-page footprint, head dim 128)",
		Header: []string{"tier", "bytes/token/layer-head-pair", "vs FP16"},
		Notes:  "straight from the tier's page layout — K4V2 is pinned at <= 1/3 of FP16 by tests at the offload and cluster layers",
	}
	dim := 128
	fp16Tok := float64(quant.FP16.TokenBytes(dim))
	for _, tier := range tiers {
		tok := quant.Precision.TokenBytes(tier, dim)
		t3.AddRow(tier.String(), fmt.Sprintf("%d", tok), pct(float64(tok)/fp16Tok))
	}

	return []*Table{t1, t2, t3}
}
