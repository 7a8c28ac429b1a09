package attention

import (
	"math"
	"testing"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
	"diffkv/internal/synth"
)

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

func TestReferenceWeightsSumToOne(t *testing.T) {
	rng := mathx.NewRNG(1)
	q, keys, vals := genKV(rng, 50, 32)
	res := Reference(q, keys, vals)
	var sum float64
	for _, tw := range res.Weights {
		sum += float64(tw.Weight)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("weights sum = %v", sum)
	}
	if len(res.Output) != 32 {
		t.Fatalf("output dim = %d", len(res.Output))
	}
}

func TestReferenceSingleToken(t *testing.T) {
	rng := mathx.NewRNG(2)
	q, keys, vals := genKV(rng, 1, 16)
	res := Reference(q, keys, vals)
	// single token: weight 1, output = value
	if res.Weights[0].Weight != 1 {
		t.Fatalf("single-token weight = %v", res.Weights[0].Weight)
	}
	if e := mathx.RelErr(res.Output, vals[0]); e > 1e-6 {
		t.Fatalf("output != value: %v", e)
	}
}

func TestUniformHighPrecisionMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(3)
	q, keys, vals := genKV(rng, 100, 64)
	ref := Reference(q, keys, vals)
	res := new(Scratch).Uniform(q, keys, vals, quant.K8V8)
	if e := OutputError(res.Output, ref.Output); e > 0.02 {
		t.Fatalf("K8V8 error vs reference = %v", e)
	}
}

func TestUniformErrorOrdering(t *testing.T) {
	// More aggressive quantization must increase output error.
	rng := mathx.NewRNG(4)
	q, keys, vals := genKV(rng, 200, 64)
	ref := Reference(q, keys, vals)
	prev := -1.0
	for _, prec := range []quant.Precision{quant.K8V8, quant.K8V4, quant.K4V2, quant.K2V2} {
		res := new(Scratch).Uniform(q, keys, vals, prec)
		e := OutputError(res.Output, ref.Output)
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
		ref := Reference(q, h.Keys, h.Vals)
		e84 += OutputError(new(Scratch).Uniform(q, h.Keys, h.Vals, quant.K8V4).Output, ref.Output)
		e48 += OutputError(new(Scratch).Uniform(q, h.Keys, h.Vals, quant.K4V8).Output, ref.Output)
		e42 += OutputError(new(Scratch).Uniform(q, h.Keys, h.Vals, quant.K4V2).Output, ref.Output)
		e24 += OutputError(new(Scratch).Uniform(q, h.Keys, h.Vals, quant.K2V4).Output, ref.Output)
	}
	if e84 >= e48 {
		t.Fatalf("K8V4 error (%v) should be below K4V8 (%v)", e84/float64(reps), e48/float64(reps))
	}
	if e42 >= e24 {
		t.Fatalf("K4V2 error (%v) should be below K2V4 (%v)", e42/float64(reps), e24/float64(reps))
	}
}

func TestUniformBytesAccounting(t *testing.T) {
	rng := mathx.NewRNG(6)
	q, keys, vals := genKV(rng, 10, 64)
	res := new(Scratch).Uniform(q, keys, vals, quant.K4V2)
	if res.BytesRead != 10*quant.K4V2.TokenBytes(64) {
		t.Fatalf("BytesRead = %d", res.BytesRead)
	}
	ref := Reference(q, keys, vals)
	if ref.BytesRead <= res.BytesRead {
		t.Fatal("reference must read more bytes than K4V2")
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
	return m, sc.Heads[0]
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
	cRes := Compressed(q, hc, nil)
	uRes := new(Scratch).Uniform(q, keys, vals, quant.K8V4)
	if e := mathx.RelErr(cRes.Output, uRes.Output); e > 1e-4 {
		t.Fatalf("compressed vs uniform mismatch: %v", e)
	}
	if cRes.BytesRead != uRes.BytesRead {
		t.Fatalf("bytes: %d vs %d", cRes.BytesRead, uRes.BytesRead)
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
	res := Compressed(q, hc, window)
	ref := Reference(q, keys, vals)
	if e := OutputError(res.Output, ref.Output); e > 0.35 {
		t.Fatalf("mixed-tier error vs reference = %v", e)
	}
	// every position must appear exactly once in the weights
	seen := map[int32]int{}
	var sum float64
	for _, tw := range res.Weights {
		seen[tw.Pos]++
		sum += float64(tw.Weight)
	}
	if len(seen) != 90 {
		t.Fatalf("distinct positions = %d", len(seen))
	}
	for pos, c := range seen {
		if c != 1 {
			t.Fatalf("position %d counted %d times", pos, c)
		}
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("weights sum = %v", sum)
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
	res := Compressed(q, hc, window)
	ref := Reference(q, keys, vals)
	if e := OutputError(res.Output, ref.Output); e > 1e-5 {
		t.Fatalf("window-only attention should be exact: %v", e)
	}
}

func TestCompressedBytesReflectTiers(t *testing.T) {
	rng := mathx.NewRNG(10)
	dim := 64
	_, keys, vals := genKV(rng, 40, dim)
	q := make([]float32, dim)
	rng.NormVec(q, 1)
	_, hc := newTestCache(t, dim)
	for j := 0; j < 20; j++ {
		hc.AppendToken(kvcache.LevelHi, keys[j], vals[j], 1, int32(j))
	}
	for j := 20; j < 40; j++ {
		hc.AppendToken(kvcache.LevelLo, keys[j], vals[j], 1, int32(j))
	}
	res := Compressed(q, hc, nil)
	want := 20*quant.K8V4.TokenBytes(dim) + 20*quant.K4V2.TokenBytes(dim)
	if res.BytesRead != want {
		t.Fatalf("BytesRead = %d, want %d", res.BytesRead, want)
	}
}

func TestOutputErrorIdentity(t *testing.T) {
	x := []float32{1, 2, 3}
	if OutputError(x, x) != 0 {
		t.Fatal("self error should be 0")
	}
}
