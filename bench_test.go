package diffkv

// One benchmark per paper table/figure (regenerating its rows/series in
// fast mode), plus micro-benchmarks of the hot kernels. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks print nothing; use cmd/diffkv-bench to see the
// tables.

import (
	"testing"

	"diffkv/internal/benchkernels"
	"diffkv/internal/experiments"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/synth"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Opts{Fast: true, Reps: 1, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkFig2ScoreValueNormCDF(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3PerTokenScores(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFig4CriticalTokensPerLayer(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5CriticalTokensPerHead(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig8DifferentiatedQuant(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9DynamicVsStatic(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10Calibration(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11MemoryAccuracyTradeoff(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12CompressionBreakdown(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13CompactionLatency(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14LatencyBreakdown(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15KernelSpeedup(b *testing.B)          { benchExperiment(b, "fig15") }
func BenchmarkFig16DynamicWorkloads(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17Throughput(b *testing.B)             { benchExperiment(b, "fig17") }
func BenchmarkTable1AccuracyMemory(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTable2LongBench(b *testing.B)             { benchExperiment(b, "tab2") }
func BenchmarkTable3ThinkingModels(b *testing.B)        { benchExperiment(b, "tab3") }

// --- beyond the paper: cluster serving ---

func BenchmarkClusterRouting(b *testing.B) { benchExperiment(b, "cluster-routing") }

// --- kernel micro-benchmarks ---
//
// Bodies live in internal/benchkernels, shared with the diffkv-bench -json
// perf snapshot so both measure identical workloads.

func BenchmarkQuantizeK8(b *testing.B)          { benchkernels.QuantizeK8(b) }
func BenchmarkQuantizeV2(b *testing.B)          { benchkernels.QuantizeV2(b) }
func BenchmarkDequantDotK4(b *testing.B)        { benchkernels.DequantDotK4(b) }
func BenchmarkDequantAxpyV2(b *testing.B)       { benchkernels.DequantAxpyV2(b) }
func BenchmarkDequantDotSlotsPage(b *testing.B) { benchkernels.DequantDotSlotsPage(b) }

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
// 64 KB pages. Every head's candidate displaces a victim of its tier, so
// token counts hold still and the cost is the plan and apply walks alone.
func BenchmarkGenCompactSteady(b *testing.B) {
	const seqs, heads, promptLen = 78, 256, 512
	mgr, err := kvcache.NewManager(kvcache.Config{
		Dim: 128, PageBytes: 65536, NumPages: 4 * seqs * heads, MaxSeqLen: 8192,
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
			switch u := rng.Float64(); {
			case u < hiF:
				demands[i][h] = kvcache.GenDemand{HiDelta: 1, HiRemoved: 1}
			case u < hiF+loF:
				demands[i][h] = kvcache.GenDemand{LoDelta: 1, LoRemoved: 1}
			}
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

func BenchmarkCompressedAttention1K(b *testing.B) { benchkernels.CompressedAttention1K(b) }

func BenchmarkCompressedAttention1KScratch(b *testing.B) {
	benchkernels.CompressedAttention1KScratch(b)
}

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
