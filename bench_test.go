package diffkv

// Micro-benchmarks of the hot kernels, the page manager, the synthetic
// generator and one engine sequence. Run with:
//
//	go test -bench=. -benchmem
//
// Most kernel bodies live in internal/benchkernels, shared with the
// benchmark module's paper_tables probes so both measure identical
// workloads. Paper tables and figures print through cmd/diffkv-bench;
// end-to-end performance is measured by benchmark/run.sh.

import (
	"testing"

	"diffkv/internal/benchkernels"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/quant"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func BenchmarkQuantizeK8(b *testing.B)          { benchkernels.QuantizeK8(b) }
func BenchmarkDequantDotK4(b *testing.B)        { benchkernels.DequantDotK4(b) }
func BenchmarkDequantAxpyV2(b *testing.B)       { benchkernels.DequantAxpyV2(b) }
func BenchmarkDequantDotSlotsPage(b *testing.B) { benchkernels.DequantDotSlotsPage(b) }

// BenchmarkQuantizeV2 packs one dim-128 value vector at 2 bits.
func BenchmarkQuantizeV2(b *testing.B) {
	rng := mathx.NewRNG(2)
	src := make([]float32, 128)
	rng.NormVec(src, 1)
	dst := make([]byte, quant.PackedLen(128, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.QuantizeInto(src, 2, dst)
	}
}

func BenchmarkParallelExclusiveScan64K(b *testing.B) {
	src := make([]int32, 65536)
	dst := make([]int32, 65536)
	for i := range src {
		src[i] = int32(i % 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mathx.ParallelExclusiveScan(src, dst)
	}
}

func BenchmarkFreeListAllocBatch(b *testing.B) {
	// the coordination phase of compaction: 2048 heads allocating, then
	// recycling, on one list (as the benchmark module's probe does)
	counts := make([]int32, 2048)
	for i := range counts {
		counts[i] = int32(i % 3)
	}
	fl := kvcache.NewFreeList(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := fl.AllocBatch(counts)
		if err != nil {
			b.Fatal(err)
		}
		fl.RecycleBatch(ids)
	}
}

// BenchmarkGenCompactSteady is one generation step of the page manager at
// the decode_heavy probe's shape: 78 sequences × 256 heads, counts-only,
// the serving engine's page size, so the plan fans out on GOMAXPROCS
// workers. Every head's
// candidate displaces a victim of its tier, a demand of zero, so token
// counts hold still and the cost is the plan walk alone.
func BenchmarkGenCompactSteady(b *testing.B) {
	const seqs, heads, promptLen = 78, 256, 512
	mgr, err := kvcache.NewManager(kvcache.Config{
		Dim: 128, PageBytes: serving.PageBytes, NumPages: 4 * seqs * heads, MaxSeqLen: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(42)
	ids := make([]int, seqs)
	demands := make([][]kvcache.GenDemand, seqs)
	prompt := make([]kvcache.HeadDemand, heads)
	for i := range ids {
		ids[i] = i + 1
		demands[i] = make([]kvcache.GenDemand, heads)
		for h := range prompt {
			hiF := mathx.Clamp(0.25*rng.LogNorm(0, 0.3), 0.02, 0.9)
			loF := mathx.Clamp(0.3*rng.LogNorm(0, 0.3), 0, 0.9-hiF)
			prompt[h] = kvcache.HeadDemand{HiTokens: int(hiF * promptLen), LoTokens: int(loF * promptLen)}
		}
		if _, err := mgr.AddSequence(ids[i], heads); err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.PromptCompact(ids[i], promptLen, prompt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.GenCompact(ids, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPromptChurn is one short request's pass through the page
// manager at the prefill_churn workload's shape: a counts-only Llama3-8B
// manager of that workload's 54,229 pages of the serving engine's size,
// and per iteration
// AddSequence, PromptCompact of a 2.5k-token prompt over 256 heads, and
// ReleaseSequence. With -cpuprofile it is the admit / prompt / release
// path's profile.
func BenchmarkPromptChurn(b *testing.B) {
	const numPages, promptLen = 54229, 2500
	model := synth.Llama3_8B
	heads := model.Layers * model.KVHeads
	mgr, err := kvcache.NewManager(kvcache.Config{
		Dim: model.HeadDim, PageBytes: serving.PageBytes, NumPages: numPages, MaxSeqLen: model.MaxSeqLen,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(42)
	prompt := make([]kvcache.HeadDemand, heads)
	for h := range prompt {
		hiF := mathx.Clamp(0.25*rng.LogNorm(0, 0.3), 0.02, 0.9)
		loF := mathx.Clamp(0.3*rng.LogNorm(0, 0.3), 0, 0.9-hiF)
		prompt[h] = kvcache.HeadDemand{HiTokens: int(hiF * promptLen), LoTokens: int(loF * promptLen)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.AddSequence(i, heads); err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.PromptCompact(i, promptLen, prompt); err != nil {
			b.Fatal(err)
		}
		if err := mgr.ReleaseSequence(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressedAttention1K(b *testing.B) { benchkernels.CompressedAttention1K(b) }

func BenchmarkGenPolicyStep(b *testing.B) { benchkernels.GenPolicyStep(b) }

func BenchmarkSynthGenHead512(b *testing.B) {
	rng := mathx.NewRNG(9)
	prof := synth.Profile(synth.Llama3_8B, 8, 0, 1, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synth.GenHead(synth.Llama3_8B, prof, 512, rng)
	}
}

// BenchmarkScoresInto512 is one query's softmax scores over a 512-token
// head into a reused buffer: the row-interleaved dot kernel behind
// SignificancePrefix, the reproduction path's hottest loop.
func BenchmarkScoresInto512(b *testing.B) {
	rng := mathx.NewRNG(9)
	h := synth.GenHead(synth.Llama3_8B, synth.Profile(synth.Llama3_8B, 8, 0, 1, rng), 512, rng)
	q := h.Query(rng)
	dst := make([]float32, h.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ScoresInto(q, dst)
	}
}

// BenchmarkSignificancePrefix is the prompt-phase significance pass of one
// head at LongBench Qasper's prompt length on Llama3.1-8B: 512 strided
// steps of four queries each, every query scored against the prefix.
func BenchmarkSignificancePrefix(b *testing.B) {
	rng := mathx.NewRNG(9)
	n := workload.LBQasper.PromptLen
	h := synth.GenHead(synth.Llama31_8B, synth.Profile(synth.Llama31_8B, 8, 0, 1, rng), n, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SignificancePrefix(synth.Llama31_8B, n, rng)
	}
}

func BenchmarkEngineSequence(b *testing.B) {
	eng, err := NewEngine(EngineConfig{
		Model:  Llama3_8B,
		Params: DefaultParams("Llama3-8B"),
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSequence(128, 96, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
