package experiments

import (
	"fmt"
	"sort"
	"time"

	"diffkv/internal/attention"
	"diffkv/internal/core"
	"diffkv/internal/gpusim"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// AblationScan isolates the parallel-compaction claim: the coordination
// phase's prefix sum, sequential vs goroutine-parallel (measured wall time
// on this host) and the modeled GPU coordination cost vs a sequential
// O(regions) alternative.
func AblationScan(o Opts) []*Table {
	o.norm()
	t := &Table{
		Title:  "Ablation: prefix-sum coordination — sequential vs parallel",
		Header: []string{"regions", "seq-scan(host µs)", "par-scan(host µs)", "gpu-parallel(µs)", "gpu-sequential(µs)"},
		Notes:  "parallel coordination turns O(regions) into O(log regions) dependent steps",
	}
	dev := gpusim.L40()
	for _, n := range []int{1024, 8192, 65536, 524288} {
		// host wall-clock measurement is inherently nondeterministic, so
		// fast mode (benchmarks and the parallel-vs-sequential identity
		// test) skips it and reports only the modeled GPU costs
		seqCell, parCell := "-", "-"
		if !o.Fast {
			src := make([]int32, n)
			for i := range src {
				src[i] = int32(i % 3)
			}
			dst := make([]int32, n)
			reps := 20
			start := time.Now()
			for r := 0; r < reps; r++ {
				mathx.ExclusiveScan(src, dst)
			}
			seqCell = f1(float64(time.Since(start).Microseconds()) / float64(reps))
			start = time.Now()
			for r := 0; r < reps; r++ {
				mathx.ParallelExclusiveScan(src, dst)
			}
			parCell = f1(float64(time.Since(start).Microseconds()) / float64(reps))
		}

		gpuPar := dev.GPUCompaction(0, n)
		// sequential coordination: one dependent step per region (~4ns each
		// at GPU clock) plus the same launches
		gpuSeq := gpusim.Micros(float64(n)*0.004) + 4*dev.KernelLaunch
		t.AddRow(fmt.Sprintf("%d", n), seqCell, parCell,
			f1(float64(gpuPar)), f1(float64(gpuSeq)))
	}
	return []*Table{t}
}

// AblationTables quantifies the bidirectional page table's metadata saving
// against maintaining two separate per-precision tables (paper §5.2).
func AblationTables(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	t := &Table{
		Title:  "Ablation: bidirectional page table vs two separate tables",
		Header: []string{"batch", "bidirectional(MB)", "two-tables(MB)", "saving"},
		Notes:  "one shared entry serves both precisions; separate tables double it",
	}
	// 8KB pages, K8V4 tier: 37 tokens/page; table slots = maxSeq/37
	slots := (8192 + 36) / 37
	perTable := kvcache.NewBiTable(slots).MetadataBytes()
	heads := model.Layers * model.KVHeads
	for _, batch := range []int{32, 128, 512} {
		bi := float64(batch*heads*perTable) / (1 << 20)
		// separate tables: a hi table of the same length plus a lo table of
		// maxSeq/tokensPerLoPage entries
		loSlots := (8192 + 67) / 68
		two := float64(batch*heads*(perTable+4*loSlots)) / (1 << 20)
		t.AddRow(fmt.Sprintf("%d", batch), f1(bi), f1(two),
			pct(1-bi/two))
	}
	return []*Table{t}
}

// meanTerms is the ablations' mean output error and memory fraction over
// rs. Each term is divided before it is summed, and that order is what
// their tables pin.
func meanTerms(rs []core.SequenceResult) (errMean, memMean float64) {
	n := float64(len(rs))
	for _, r := range rs {
		errMean += r.OutputErr / n
		memMean += r.MemFrac / n
	}
	return errMean, memMean
}

// AblationWindow sweeps the recent-window size W: too small compresses
// prematurely (error up), too large wastes memory on uncompressed tokens.
func AblationWindow(o Opts) []*Table {
	o.norm()
	t := &Table{
		Title:  "Ablation: recent window W (Llama3-8B, MATH-train)",
		Header: []string{"W", "output-error", "mem%"},
		Notes:  "W=64 (the paper's default) balances premature compression vs window overhead",
	}
	windows := []int{8, 32, 64, 128, 256}
	if o.Fast {
		windows = []int{8, 64, 256}
	}
	bench := workload.MATHTrain
	promptLen, genLen := 384, 384
	if o.Fast {
		promptLen, genLen = 192, 160
	}
	for _, w := range windows {
		params := policy.ParamsLlama3
		params.Window = w
		cfg := core.Config{Model: synth.Llama3_8B, Params: params, DensityScale: bench.DensityScale, Seed: o.Seed}
		errMean, memMean := meanTerms(o.sequences(cfg, promptLen, genLen, o.Reps, 0))
		t.AddRow(fmt.Sprintf("%d", w), f3(errMean), pct(memMean))
	}
	return []*Table{t}
}

// AblationPageSize measures page-granularity fragmentation: smaller pages
// track token-exact usage tightly but multiply management regions; larger
// pages waste the partial tail of every (head, tier) pair.
func AblationPageSize(o Opts) []*Table {
	o.norm()
	t := &Table{
		Title:  "Ablation: unified page size (Llama3-8B population, 64 seqs)",
		Header: []string{"page-bytes", "tokens/hi-page", "frag-overhead", "pages-managed"},
		Notes:  "fragmentation = allocated page bytes over token-exact bytes - 1",
	}
	model := synth.Llama3_8B
	// a representative slice of heads: fragmentation per head is i.i.d.,
	// so 64 heads measure the same overhead as the full 256 at a quarter
	// of the page budget
	headsN := 64
	rng := mathx.NewRNG(o.Seed + 77)
	seqs := 48
	if o.Fast {
		seqs = 16
	}
	type seqProfile struct{ hi, lo []int }
	profiles := make([]seqProfile, seqs)
	for s := range profiles {
		hi := make([]int, headsN)
		lo := make([]int, headsN)
		n := 512 + rng.Intn(1024)
		for h := range hi {
			hi[h] = int(mathx.Clamp(0.25*rng.LogNorm(0, 0.3), 0.02, 0.9) * float64(n))
			lo[h] = int(mathx.Clamp(0.25*rng.LogNorm(0, 0.3), 0, 0.5) * float64(n))
		}
		profiles[s] = seqProfile{hi, lo}
	}
	for _, pageBytes := range []int{2048, 8192, 32768, 131072} {
		mgr, err := kvcache.NewManager(kvcache.Config{
			Dim: model.HeadDim, PageBytes: pageBytes,
			NumPages: (2 << 30) / pageBytes, MaxSeqLen: 4096,
		})
		if err != nil {
			panic(err)
		}
		var exact float64
		for s, p := range profiles {
			if _, err := mgr.AddSequence(s, headsN); err != nil {
				panic(err)
			}
			demands := make([]kvcache.HeadDemand, headsN)
			maxTok := 0
			for h := range demands {
				demands[h] = kvcache.HeadDemand{HiTokens: p.hi[h], LoTokens: p.lo[h]}
				if tot := p.hi[h] + p.lo[h]; tot > maxTok {
					maxTok = tot
				}
				exact += float64(p.hi[h]*quant.K8V4.TokenBytes(model.HeadDim) +
					p.lo[h]*quant.K4V2.TokenBytes(model.HeadDim))
			}
			if _, err := mgr.PromptCompact(s, maxTok+64, demands); err != nil {
				panic(err)
			}
		}
		allocated := float64(mgr.BytesUsed())
		t.AddRow(fmt.Sprintf("%d", pageBytes),
			fmt.Sprintf("%d", mgr.TokensPerHiPage()),
			pct(allocated/exact-1),
			fmt.Sprintf("%d", mgr.UsedPages()))
	}
	return []*Table{t}
}

// AblationThreeLevels evaluates the §5.3 extension: a third precision level
// (FP16–K8V4–K4V2) against the paper's two-level K8V4–K4V2 scheme, using
// significance-ranked level assignment on real tensors.
func AblationThreeLevels(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	t := &Table{
		Title:  "Ablation: two vs three precision levels (Llama3-8B)",
		Header: []string{"scheme", "output-error", "mem%"},
		Notes:  "a third level buys little: K8V4 is already near-lossless (paper §4 discussion)",
	}
	n := 512
	reps := 4 * o.Reps
	root := mathx.NewRNG(o.Seed + 33)

	type scheme struct {
		name   string
		levels []quant.Precision // most to least significant tier
		split  []float64         // cumulative token fractions per tier
	}
	schemes := []scheme{
		{"K8V4-K4V2 (paper)", []quant.Precision{quant.K8V4, quant.K4V2}, []float64{0.3, 1.0}},
		{"FP16-K8V4-K4V2", []quant.Precision{quant.FP16, quant.K8V4, quant.K4V2}, []float64{0.1, 0.35, 1.0}},
		{"K8V4-K4V2-K4V1", []quant.Precision{quant.K8V4, quant.K4V2, quant.K4V1}, []float64{0.3, 0.8, 1.0}},
	}
	for _, sc := range schemes {
		errs := make([]float64, reps)
		mems := make([]float64, reps)
		eachHead(reps, func(rep int) {
			rng := root.SplitAt(uint64(rep))
			prof := synth.Profile(model, rep%model.Layers, rep%model.KVHeads, 1, rng)
			data := synth.GenHead(model, prof, n, rng.SplitAt(1))
			sig := data.CheapSignificance(model, rng.SplitAt(2))
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sortIdxBySigDesc(order, sig)
			keys := make([][]float32, n)
			vals := make([][]float32, n)
			var bytes int
			for rank, j := range order {
				frac := float64(rank) / float64(n)
				tier := 0
				for frac >= sc.split[tier] {
					tier++
				}
				p := sc.levels[tier]
				keys[j] = quant.RoundTrip(data.Keys[j], p.KeyBits)
				vals[j] = quant.RoundTrip(data.Vals[j], p.ValBits)
				bytes += p.TokenBytes(model.HeadDim)
			}
			q := data.Query(rng.SplitAt(3))
			var scRef, scRecon attention.Scratch
			ref := scRef.Reference(q, data.Keys, data.Vals)
			errs[rep] = attention.OutputError(scRecon.Reference(q, keys, vals), ref) / float64(reps)
			mems[rep] = float64(bytes) / float64(n*4*model.HeadDim) / float64(reps)
		})
		var errSum, memSum float64
		for rep := 0; rep < reps; rep++ {
			errSum += errs[rep]
			memSum += mems[rep]
		}
		t.AddRow(sc.name, f3(errSum), pct(memSum))
	}
	return []*Table{t}
}

// sortIdxBySigDesc orders idx by descending significance with a stable
// position tiebreak.
func sortIdxBySigDesc(idx []int, sig []float32) {
	sort.Slice(idx, func(a, b int) bool {
		if sig[idx[a]] != sig[idx[b]] {
			return sig[idx[a]] > sig[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

// AblationPerHead evaluates the paper's future-work extension: per-head
// thresholds (each head scales αh by its own sparsity) against the shared
// thresholds the paper ships. The paper argues shared thresholds suffice
// (§4 Discussion); this quantifies what per-head tuning buys.
func AblationPerHead(o Opts) []*Table {
	o.norm()
	t := &Table{
		Title:  "Ablation: shared vs per-head thresholds (Llama3-8B, MATH-train)",
		Header: []string{"scheme", "output-error", "mem%"},
		Notes:  "shared thresholds are within noise of per-head tuning (paper §4)",
	}
	bench := workload.MATHTrain
	promptLen, genLen := 384, 384
	if o.Fast {
		promptLen, genLen = 192, 160
	}
	for _, perHead := range []bool{false, true} {
		errMean, memMean := meanTerms(o.sequences(core.Config{
			Model: synth.Llama3_8B, Params: policy.ParamsLlama3,
			DensityScale: bench.DensityScale, Seed: o.Seed,
			PerHeadThresholds: perHead,
			SampleLayers:      3, SampleHeads: 3,
		}, promptLen, genLen, o.Reps, 0))
		name := "shared (paper)"
		if perHead {
			name = "per-head αh"
		}
		t.AddRow(name, f3(errMean), pct(memMean))
	}
	return []*Table{t}
}

// AblationDevices ports the Fig. 15 kernel-speedup measurement across GPU
// generations: compression speedups are byte ratios, so they carry over
// from the L40 to A100/H100 nearly unchanged while absolute step times
// scale with bandwidth.
func AblationDevices(o Opts) []*Table {
	o.norm()
	model := synth.Llama3_8B
	t := &Table{
		Title:  "Ablation: kernel speedup across GPUs (seq 4096, batch 8)",
		Header: []string{"device", "FP16-attn(ms)", "K8V4-speedup", "K4V2-speedup"},
		Notes:  "compression speedups are bandwidth-invariant byte ratios",
	}
	headsN := model.Layers * model.KVHeads
	batch, seqLen := 8, 4096
	fpBytes := float64(batch*seqLen*headsN) * float64(4*model.HeadDim)
	for _, dev := range gpusim.Devices() {
		fp := dev.AttentionKernel(fpBytes, false, 1)
		row := []string{dev.Name, f1(fp.Millis())}
		for _, prec := range []quant.Precision{quant.K8V4, quant.K4V2} {
			qBytes := float64(batch*seqLen*headsN) * float64(prec.TokenBytes(model.HeadDim))
			q := dev.AttentionKernel(qBytes, true, 1)
			row = append(row, fmt.Sprintf("%.2fx", float64(fp)/float64(q)))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}
