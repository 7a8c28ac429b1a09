// Package benchkernels holds the hot-path kernel micro-benchmarks shared by
// the repository-root bench_test.go and the paper_tables workload of the
// benchmark module, so `go test -bench` and the benchmark ledger always
// measure the same workloads.
package benchkernels

import (
	"testing"

	"diffkv/internal/attention"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
)

// QuantizeK8 packs one dim-128 key vector at 8 bits.
func QuantizeK8(b *testing.B) {
	rng := mathx.NewRNG(1)
	src := make([]float32, 128)
	rng.NormVec(src, 1)
	dst := make([]byte, quant.PackedLen(128, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.QuantizeInto(src, 8, dst)
	}
}

// DequantDotK4 is the fused dequantize-dot key kernel at 4 bits, dim 128.
func DequantDotK4(b *testing.B) {
	rng := mathx.NewRNG(3)
	k := make([]float32, 128)
	q := make([]float32, 128)
	rng.NormVec(k, 1)
	rng.NormVec(q, 1)
	data := make([]byte, quant.PackedLen(128, 4))
	scale, zero := quant.QuantizeInto(k, 4, data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.DequantDot(q, data, 4, scale, zero)
	}
}

// DequantAxpyV2 is the fused dequantize-axpy value kernel at 2 bits, dim 128.
func DequantAxpyV2(b *testing.B) {
	rng := mathx.NewRNG(4)
	v := make([]float32, 128)
	rng.NormVec(v, 1)
	data := make([]byte, quant.PackedLen(128, 2))
	scale, zero := quant.QuantizeInto(v, 2, data)
	dst := make([]float32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.DequantAxpy(0.25, data, 2, 128, scale, zero, dst)
	}
}

// DequantDotSlotsPage measures the page-granular batched key kernel on one
// full K8V4 page worth of slots (37 tokens at dim 128).
func DequantDotSlotsPage(b *testing.B) {
	rng := mathx.NewRNG(6)
	dim, slots := 128, 37
	stride := quant.PackedLen(dim, 8)
	data := make([]byte, slots*stride)
	meta := make([]float32, 2*slots)
	v := make([]float32, dim)
	for s := 0; s < slots; s++ {
		rng.NormVec(v, 1)
		sc, z := quant.QuantizeInto(v, 8, data[s*stride:(s+1)*stride])
		meta[2*s], meta[2*s+1] = sc, z
	}
	q := make([]float32, dim)
	rng.NormVec(q, 1)
	out := make([]float32, slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.DequantDotSlots(q, data, 8, slots, meta, out)
	}
}

// cache1K builds the shared 1024-token mixed-tier head cache and query.
func cache1K(b *testing.B) (*kvcache.HeadCache, []float32) {
	b.Helper()
	rng := mathx.NewRNG(5)
	mgr, err := kvcache.NewManager(kvcache.Config{
		Dim: 128, PageBytes: 8192, NumPages: 256, MaxSeqLen: 2048, Materialize: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := mgr.AddSequence(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	hc := sc.Head(0)
	k := make([]float32, 128)
	v := make([]float32, 128)
	for j := 0; j < 1024; j++ {
		rng.NormVec(k, 1)
		rng.NormVec(v, 1)
		lvl := kvcache.LevelHi
		if j%3 != 0 {
			lvl = kvcache.LevelLo
		}
		if err := hc.AppendToken(lvl, k, v, 1, int32(j)); err != nil {
			b.Fatal(err)
		}
	}
	q := make([]float32, 128)
	rng.NormVec(q, 1)
	return hc, q
}

// CompressedAttention1K runs compressed attention over the 1024-token cache
// with a fresh Scratch per call, so every call grows its buffers.
func CompressedAttention1K(b *testing.B) {
	hc, q := cache1K(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sc attention.Scratch
		sc.Compressed(q, hc, nil)
	}
}

// GenPolicyStep measures one Algorithm-1 generation step. Token buffers are
// hoisted out of the timed loop so the benchmark measures the policy step,
// not make. The window retains references to submitted keys/values, so a
// rotating pool deeper than the window keeps entries distinct without
// allocating inside the loop.
func GenPolicyStep(b *testing.B) {
	rng := mathx.NewRNG(7)
	mgr, err := kvcache.NewManager(kvcache.Config{
		Dim: 128, PageBytes: 8192, NumPages: 4096, MaxSeqLen: 1 << 20, Materialize: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := mgr.AddSequence(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	hc := sc.Head(0)
	gp, err := policy.NewGenPolicy(policy.ParamsLlama3, 128, 4096)
	if err != nil {
		b.Fatal(err)
	}
	depth := policy.ParamsLlama3.Window + 1
	keys := make([][]float32, depth)
	vals := make([][]float32, depth)
	for i := range keys {
		keys[i] = make([]float32, 128)
		vals[i] = make([]float32, 128)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%depth]
		v := vals[i%depth]
		rng.NormVec(k, 1)
		rng.NormVec(v, 1)
		gp.Sig.Seed(i, float32(rng.Float64()*2))
		if err := gp.Step(hc, k, v, int32(i)); err != nil {
			b.Fatal(err)
		}
	}
}
