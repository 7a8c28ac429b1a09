package attention

import (
	"testing"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
	"diffkv/internal/synth"
)

// cols lays key rows out by column, as Reference, Uniform and Subset take
// them.
func cols(keys [][]float32) [][]float32 {
	if len(keys) == 0 {
		return nil
	}
	c := synth.NewKeyCols(len(keys[0]), len(keys))
	for j, k := range keys {
		for d, v := range k {
			c[d][j] = v
		}
	}
	return c
}

func genKV(rng *mathx.RNG, n, dim int) (q []float32, keys, vals [][]float32) {
	q = make([]float32, dim)
	rng.NormVec(q, 1)
	for j := 0; j < n; j++ {
		k := make([]float32, dim)
		v := make([]float32, dim)
		rng.NormVec(k, 1)
		rng.NormVec(v, 1)
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return
}

func TestReferenceSingleToken(t *testing.T) {
	rng := mathx.NewRNG(2)
	q, keys, vals := genKV(rng, 1, 16)
	// single token: weight 1, output = value
	if e := mathx.RelErr(new(Scratch).Reference(q, cols(keys), vals), vals[0]); e > 1e-6 {
		t.Fatalf("output != value: %v", e)
	}
}

func TestUniformHighPrecisionMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(3)
	q, keys, vals := genKV(rng, 100, 64)
	ref := new(Scratch).Reference(q, cols(keys), vals)
	res := new(Scratch).Uniform(q, cols(keys), vals, quant.K8V8)
	if e := OutputError(res, ref); e > 0.02 {
		t.Fatalf("K8V8 error vs reference = %v", e)
	}
}

func TestUniformErrorOrdering(t *testing.T) {
	// More aggressive quantization must increase output error.
	rng := mathx.NewRNG(4)
	q, keys, vals := genKV(rng, 200, 64)
	ref := new(Scratch).Reference(q, cols(keys), vals)
	prev := -1.0
	for _, prec := range []quant.Precision{quant.K8V8, quant.K8V4, quant.K4V2, quant.K2V2} {
		e := OutputError(new(Scratch).Uniform(q, cols(keys), vals, prec), ref)
		if e < prev {
			t.Fatalf("%s error %v below previous %v", prec, e, prev)
		}
		prev = e
	}
}

func TestKeyBitsMatterMoreThanValueBits(t *testing.T) {
	// The paper's core quantization insight (§3.1): K8V4 must beat its
	// mirror K4V8, and K4V2 must beat K2V4, on realistic attention inputs
	// where keys determine heavy-tailed scores.
	rng := mathx.NewRNG(5)
	model := synth.Llama3_8B
	var e84, e48, e42, e24 float64
	reps := 12
	for rep := 0; rep < reps; rep++ {
		prof := synth.Profile(model, rep%4, rep%8, 1, rng.SplitAt(uint64(rep)))
		h := synth.GenHead(model, prof, 256, rng.SplitAt(uint64(100+rep)))
		q := h.Query(rng)
		ref := new(Scratch).Reference(q, h.KeyCols, h.Vals)
		var s Scratch
		e84 += OutputError(s.Uniform(q, h.KeyCols, h.Vals, quant.K8V4), ref)
		e48 += OutputError(s.Uniform(q, h.KeyCols, h.Vals, quant.K4V8), ref)
		e42 += OutputError(s.Uniform(q, h.KeyCols, h.Vals, quant.K4V2), ref)
		e24 += OutputError(s.Uniform(q, h.KeyCols, h.Vals, quant.K2V4), ref)
	}
	if e84 >= e48 {
		t.Fatalf("K8V4 error (%v) should be below K4V8 (%v)", e84/float64(reps), e48/float64(reps))
	}
	if e42 >= e24 {
		t.Fatalf("K4V2 error (%v) should be below K2V4 (%v)", e42/float64(reps), e24/float64(reps))
	}
}

func newTestCache(t *testing.T, dim int) (*kvcache.Manager, *kvcache.HeadCache) {
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
	return m, sc.Head(0)
}

func TestCompressedMatchesUniformWhenAllHigh(t *testing.T) {
	// With every token in the high tier and no window, Compressed must
	// match the Scratch.Uniform(K8V4) path.
	rng := mathx.NewRNG(7)
	dim := 64
	q, keys, vals := genKV(rng, 120, dim)
	_, hc := newTestCache(t, dim)
	for j := range keys {
		if err := hc.AppendToken(kvcache.LevelHi, keys[j], vals[j], 1, int32(j)); err != nil {
			t.Fatal(err)
		}
	}
	cOut := new(Scratch).Compressed(q, hc, nil)
	uOut := new(Scratch).Uniform(q, cols(keys), vals, quant.K8V4)
	if e := mathx.RelErr(cOut, uOut); e > 1e-4 {
		t.Fatalf("compressed vs uniform mismatch: %v", e)
	}
}

func TestCompressedMixedTiersAndWindow(t *testing.T) {
	rng := mathx.NewRNG(8)
	dim := 64
	q, keys, vals := genKV(rng, 90, dim)
	_, hc := newTestCache(t, dim)
	// 30 high, 30 low, 30 in the window
	for j := 0; j < 30; j++ {
		hc.AppendToken(kvcache.LevelHi, keys[j], vals[j], 1, int32(j))
	}
	for j := 30; j < 60; j++ {
		hc.AppendToken(kvcache.LevelLo, keys[j], vals[j], 1, int32(j))
	}
	var window []policy.WindowToken
	for j := 60; j < 90; j++ {
		window = append(window, policy.WindowToken{Key: keys[j], Val: vals[j], Pos: int32(j)})
	}
	res := new(Scratch).Compressed(q, hc, window)
	ref := new(Scratch).Reference(q, cols(keys), vals)
	if e := OutputError(res, ref); e > 0.35 {
		t.Fatalf("mixed-tier error vs reference = %v", e)
	}
}

func TestCompressedEmptyCacheWindowOnly(t *testing.T) {
	rng := mathx.NewRNG(9)
	dim := 32
	q, keys, vals := genKV(rng, 5, dim)
	_, hc := newTestCache(t, dim)
	var window []policy.WindowToken
	for j := range keys {
		window = append(window, policy.WindowToken{Key: keys[j], Val: vals[j], Pos: int32(j)})
	}
	res := new(Scratch).Compressed(q, hc, window)
	ref := new(Scratch).Reference(q, cols(keys), vals)
	if e := OutputError(res, ref); e > 1e-5 {
		t.Fatalf("window-only attention should be exact: %v", e)
	}
}

func TestOutputErrorIdentity(t *testing.T) {
	x := []float32{1, 2, 3}
	if OutputError(x, x) != 0 {
		t.Fatal("self error should be 0")
	}
}
