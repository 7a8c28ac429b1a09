package attention

import (
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
	hc := sc.Heads[0]
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
	want := Compressed(q, hc, window)

	if got.BytesRead != want.BytesRead {
		t.Fatalf("bytes: %d vs %d", got.BytesRead, want.BytesRead)
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("weights: %d vs %d", len(got.Weights), len(want.Weights))
	}
	for j := range got.Weights {
		if got.Weights[j] != want.Weights[j] {
			t.Fatalf("weight %d: %+v vs %+v", j, got.Weights[j], want.Weights[j])
		}
	}
	if e := mathx.RelErr(got.Output, want.Output); e != 0 {
		t.Fatalf("scratch output differs from wrapper: %v", e)
	}
}

func TestScratchUniformMatchesWrapper(t *testing.T) {
	rng := mathx.NewRNG(22)
	q, keys, vals := genKV(rng, 80, 64)
	var s Scratch
	s.Uniform(q, keys, vals, quant.K4V2)
	got := s.Uniform(q, keys, vals, quant.K4V2)
	want := new(Scratch).Uniform(q, keys, vals, quant.K4V2)
	if e := mathx.RelErr(got.Output, want.Output); e != 0 {
		t.Fatalf("scratch uniform differs: %v", e)
	}
	if got.BytesRead != want.BytesRead {
		t.Fatalf("bytes: %d vs %d", got.BytesRead, want.BytesRead)
	}
}

func TestScratchReferenceMatchesWrapper(t *testing.T) {
	rng := mathx.NewRNG(23)
	q, keys, vals := genKV(rng, 60, 32)
	var s Scratch
	got := s.Reference(q, keys, vals)
	want := Reference(q, keys, vals)
	if e := mathx.RelErr(got.Output, want.Output); e != 0 {
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
	want := Compressed(q, hcSmall, winSmall)
	if e := mathx.RelErr(got.Output, want.Output); e != 0 {
		t.Fatalf("reuse across sizes broke output: %v", e)
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("stale weights: %d vs %d", len(got.Weights), len(want.Weights))
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

func TestScratchUniformZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(26)
	q, keys, vals := genKV(rng, 128, 64)
	var s Scratch
	s.Uniform(q, keys, vals, quant.K4V2)
	allocs := testing.AllocsPerRun(50, func() {
		s.Uniform(q, keys, vals, quant.K4V2)
	})
	if allocs != 0 {
		t.Fatalf("scratch Uniform allocated %v per run", allocs)
	}
}
