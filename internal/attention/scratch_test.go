package attention

import (
	"fmt"
	"math"
	"testing"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
)

// buildMixedCache fills a head cache with hi/lo tokens and returns a window
// slice, mirroring the shape the generation loop produces.
func buildMixedCache(t testing.TB, rng *mathx.RNG, dim, nHi, nLo, nWin int) (*kvcache.HeadCache, []policy.WindowToken, [][]float32, [][]float32) {
	t.Helper()
	m, err := kvcache.NewManager(kvcache.Config{
		Dim: dim, PageBytes: 4096, NumPages: 128,
		HiPrec: quant.K8V4, LoPrec: quant.K4V2,
		MaxSeqLen: 2048, Materialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := m.AddSequence(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	hc := sc.Head(0)
	n := nHi + nLo + nWin
	var keys, vals [][]float32
	for j := 0; j < n; j++ {
		k := make([]float32, dim)
		v := make([]float32, dim)
		rng.NormVec(k, 1)
		rng.NormVec(v, 1)
		keys = append(keys, k)
		vals = append(vals, v)
	}
	for j := 0; j < nHi; j++ {
		if err := hc.AppendToken(kvcache.LevelHi, keys[j], vals[j], 1, int32(j)); err != nil {
			t.Fatal(err)
		}
	}
	for j := nHi; j < nHi+nLo; j++ {
		if err := hc.AppendToken(kvcache.LevelLo, keys[j], vals[j], 1, int32(j)); err != nil {
			t.Fatal(err)
		}
	}
	var window []policy.WindowToken
	for j := nHi + nLo; j < n; j++ {
		window = append(window, policy.WindowToken{Key: keys[j], Val: vals[j], Pos: int32(j)})
	}
	return hc, window, keys, vals
}

func TestScratchCompressedMatchesWrapper(t *testing.T) {
	rng := mathx.NewRNG(21)
	dim := 64
	hc, window, _, _ := buildMixedCache(t, rng, dim, 40, 70, 20)
	q := make([]float32, dim)
	rng.NormVec(q, 1)

	var s Scratch
	// run twice so the second call exercises fully warmed buffers
	s.Compressed(q, hc, window)
	got := s.Compressed(q, hc, window)
	want := new(Scratch).Compressed(q, hc, window)
	if e := mathx.RelErr(got, want); e != 0 {
		t.Fatalf("warmed scratch output differs from a fresh one: %v", e)
	}
}

func TestScratchUniformMatchesWrapper(t *testing.T) {
	rng := mathx.NewRNG(22)
	q, keys, vals := genKV(rng, 80, 64)
	kc := cols(keys)
	var s Scratch
	s.Uniform(q, kc, vals, quant.K4V2)
	got := s.Uniform(q, kc, vals, quant.K4V2)
	want := new(Scratch).Uniform(q, kc, vals, quant.K4V2)
	if e := mathx.RelErr(got, want); e != 0 {
		t.Fatalf("scratch uniform differs: %v", e)
	}
}

func TestScratchReferenceMatchesWrapper(t *testing.T) {
	rng := mathx.NewRNG(23)
	q, keys, vals := genKV(rng, 60, 32)
	kc := cols(keys)
	var s Scratch
	s.Reference(q, kc, vals)
	got := s.Reference(q, kc, vals)
	want := new(Scratch).Reference(q, kc, vals)
	if e := mathx.RelErr(got, want); e != 0 {
		t.Fatalf("scratch reference differs: %v", e)
	}
}

func TestScratchBuffersReusedAcrossSizes(t *testing.T) {
	// shrinking then growing the token count must not corrupt results
	rng := mathx.NewRNG(24)
	dim := 32
	hcBig, winBig, _, _ := buildMixedCache(t, rng, dim, 30, 30, 10)
	hcSmall, winSmall, _, _ := buildMixedCache(t, rng, dim, 5, 5, 2)
	q := make([]float32, dim)
	rng.NormVec(q, 1)
	var s Scratch
	s.Compressed(q, hcBig, winBig)
	got := s.Compressed(q, hcSmall, winSmall)
	want := new(Scratch).Compressed(q, hcSmall, winSmall)
	if e := mathx.RelErr(got, want); e != 0 {
		t.Fatalf("reuse across sizes broke output: %v", e)
	}
}

func TestScratchCompressedZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(25)
	dim := 64
	hc, window, _, _ := buildMixedCache(t, rng, dim, 64, 128, 16)
	q := make([]float32, dim)
	rng.NormVec(q, 1)
	var s Scratch
	s.Compressed(q, hc, window) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		s.Compressed(q, hc, window)
	})
	if allocs != 0 {
		t.Fatalf("scratch Compressed allocated %v per run", allocs)
	}
}

// BenchmarkCompressedAttention1KScratch is the steady-state variant of the
// root BenchmarkCompressedAttention1K: a 1024-token mixed-tier head at dim
// 128, with the kernel context reused across calls so the loop runs at
// 0 allocs/op (asserted by TestScratchCompressedZeroAllocs).
func BenchmarkCompressedAttention1KScratch(b *testing.B) {
	rng := mathx.NewRNG(5)
	dim := 128
	hc, _, _, _ := buildMixedCache(b, rng, dim, 342, 682, 0)
	q := make([]float32, dim)
	rng.NormVec(q, 1)
	var s Scratch
	s.Compressed(q, hc, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Compressed(q, hc, nil)
	}
}

func TestScratchReferenceZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(27)
	q, keys, vals := genKV(rng, 131, 64)
	kc := cols(keys)
	var s Scratch
	s.Reference(q, kc, vals)
	allocs := testing.AllocsPerRun(50, func() {
		s.Reference(q, kc, vals)
	})
	if allocs != 0 {
		t.Fatalf("scratch Reference allocated %v per run", allocs)
	}
}

func TestScratchUniformZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(26)
	q, keys, vals := genKV(rng, 128, 64)
	kc := cols(keys)
	var s Scratch
	s.Uniform(q, kc, vals, quant.K4V2)
	allocs := testing.AllocsPerRun(50, func() {
		s.Uniform(q, kc, vals, quant.K4V2)
	})
	if allocs != 0 {
		t.Fatalf("scratch Uniform allocated %v per run", allocs)
	}
}

// TestScratchSubsetMatchesReference: Subset over sparse keep sets (scored
// where they lie) and dense ones (scored over the prefix) writes every bit
// Reference writes over the gathered keys and values, and allocates
// nothing once warm.
func TestScratchSubsetMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(29)
	q, keys, vals := genKV(rng, 200, 64)
	kc := cols(keys)
	var s, ref Scratch
	for _, idx := range [][]int{{7}, subsetIdx(200, 20), subsetIdx(200, 9), subsetIdx(200, 3), subsetIdx(200, 1), {150, 3, 3, 42}} {
		var gk, gv [][]float32
		for _, j := range idx {
			gk, gv = append(gk, keys[j]), append(gv, vals[j])
		}
		want := ref.Reference(q, cols(gk), gv)
		got := s.Subset(q, kc, vals, idx)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("keep %d: out[%d] = %v, Reference over gathered %v", len(idx), i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { s.Subset(q, kc, vals, idx) }); allocs != 0 {
			t.Fatalf("keep %d: Subset allocated %v per run", len(idx), allocs)
		}
	}
}

// subsetIdx lists every stride-th token of n, the sorted keep set of a head
// that prunes all but 1/stride of its tokens.
func subsetIdx(n, stride int) []int {
	var idx []int
	for j := stride / 2; j < n; j += stride {
		idx = append(idx, j)
	}
	return idx
}

// BenchmarkSubset runs Subset on a Fig9-sized head (512 tokens, dim 128)
// at keep fractions of 8 %, 25 % and 50 %, the spread the pruning
// experiments and Quest produce.
func BenchmarkSubset(b *testing.B) {
	rng := mathx.NewRNG(8)
	q, keys, vals := genKV(rng, 512, 128)
	kc := cols(keys)
	for _, stride := range []int{12, 4, 2} {
		idx := subsetIdx(len(vals), stride)
		b.Run(fmt.Sprintf("keep%d", len(idx)), func(b *testing.B) {
			var s Scratch
			s.Subset(q, kc, vals, idx)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Subset(q, kc, vals, idx)
			}
		})
	}
}
