package synth

import (
	"math"
	"slices"
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/stats"
)

func TestModelByName(t *testing.T) {
	m, err := ModelByName("Llama3-8B")
	if err != nil || m != Llama3_8B {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := ModelByName("GPT-5"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestModelZooShapes(t *testing.T) {
	for _, m := range Models {
		if m.Layers <= 0 || m.KVHeads <= 0 || m.QueriesPerKV <= 0 || m.HeadDim <= 0 {
			t.Fatalf("%s has invalid shape", m.Name)
		}
	}
}

func TestQwenHasHigherGQARatio(t *testing.T) {
	// The paper attributes Qwen2.5-7B's 4-bit key sensitivity to its
	// aggressive GQA ratio of 7 vs Llama3-8B's 4.
	if Qwen25_7B.QueriesPerKV != 7 || Llama3_8B.QueriesPerKV != 4 {
		t.Fatal("GQA ratios do not match the paper")
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Llama3-8B: 2 bytes * 2 tensors * 128 dim * 8 heads * 32 layers = 131072
	if got := Llama3_8B.KVBytesPerTokenFP16(); got != 131072 {
		t.Fatalf("KV bytes per token = %d", got)
	}
}

func TestProfileDeterministicPerLayerHead(t *testing.T) {
	r1 := mathx.NewRNG(1)
	r2 := mathx.NewRNG(1)
	p1 := Profile(Llama3_8B, 5, 3, 1, r1)
	p2 := Profile(Llama3_8B, 5, 3, 1, r2)
	if p1 != p2 {
		t.Fatal("profile not deterministic for same request seed")
	}
}

func TestProfileVariesAcrossHeads(t *testing.T) {
	rng := mathx.NewRNG(1)
	seen := map[float64]bool{}
	for h := 0; h < Llama3_8B.KVHeads; h++ {
		p := Profile(Llama3_8B, 15, h, 1, rng.SplitAt(uint64(h)))
		seen[p.HeavyFrac] = true
	}
	if len(seen) < 4 {
		t.Fatalf("per-head fractions not diverse: %v", seen)
	}
}

func TestProfileVariesAcrossRequests(t *testing.T) {
	var s stats.Summary
	for r := 0; r < 50; r++ {
		p := Profile(Llama3_8B, 15, 2, 1, mathx.NewRNG(uint64(r)+100))
		s.Add(p.HeavyFrac)
	}
	if s.Std() < 0.01 {
		t.Fatalf("per-request variance too small: std=%v", s.Std())
	}
}

func TestProfileDensityScaleReducesHeavyFrac(t *testing.T) {
	dense := Profile(Llama3_8B, 10, 1, 1, mathx.NewRNG(7))
	sparse := Profile(Llama3_8B, 10, 1, 2.5, mathx.NewRNG(7))
	if sparse.HeavyFrac >= dense.HeavyFrac {
		t.Fatalf("higher densityScale should lower HeavyFrac: %v vs %v",
			sparse.HeavyFrac, dense.HeavyFrac)
	}
}

func TestProfileBounds(t *testing.T) {
	for l := 0; l < Llama3_8B.Layers; l++ {
		for h := 0; h < Llama3_8B.KVHeads; h++ {
			p := Profile(Llama3_8B, l, h, 1, mathx.NewRNG(uint64(l*8+h)))
			if p.HeavyFrac < 0.01 || p.HeavyFrac > 0.9 {
				t.Fatalf("HeavyFrac out of bounds at (%d,%d): %v", l, h, p.HeavyFrac)
			}
		}
	}
}

func TestCriticalTokens(t *testing.T) {
	// one dominant token carries 96% of the mass
	scores := []float32{0.96, 0.01, 0.01, 0.01, 0.01}
	if got := CriticalTokens(scores, 0.95); got != 1 {
		t.Fatalf("CriticalTokens = %d, want 1", got)
	}
	// uniform: need 95% of tokens
	uniform := make([]float32, 100)
	for i := range uniform {
		uniform[i] = 0.01
	}
	if got := CriticalTokens(uniform, 0.95); got != 95 {
		t.Fatalf("uniform CriticalTokens = %d, want 95", got)
	}
}

func TestCriticalTokensEdge(t *testing.T) {
	if CriticalTokens(nil, 0.95) != 0 {
		t.Fatal("empty scores")
	}
	if CriticalTokens([]float32{0, 0}, 0.95) != 2 {
		t.Fatal("zero-mass scores should require all tokens")
	}
}

func TestSortDescF32(t *testing.T) {
	x := []float32{3, 1, 4, 1, 5, 9, 2, 6}
	sortDescF32(x)
	for i := 1; i < len(x); i++ {
		if x[i] > x[i-1] {
			t.Fatalf("not descending: %v", x)
		}
	}
}

func TestGenHeadShapes(t *testing.T) {
	rng := mathx.NewRNG(11)
	prof := Profile(Llama3_8B, 8, 0, 1, rng)
	h := GenHead(Llama3_8B, prof, 64, rng)
	if h.Len() != 64 {
		t.Fatalf("Len = %d", h.Len())
	}
	if len(h.KeyCols) != 128 {
		t.Fatalf("%d key columns, want 128", len(h.KeyCols))
	}
	for d, c := range h.KeyCols {
		if len(c) != 64 {
			t.Fatalf("key column %d holds %d tokens, want 64", d, len(c))
		}
	}
	for j := 0; j < 64; j++ {
		if len(h.Vals[j]) != 128 {
			t.Fatalf("vector dims wrong at token %d", j)
		}
	}
}

func TestGenHeadScoresMatchConstructionLogits(t *testing.T) {
	// The realized attention logits q·k/√d should correlate with the
	// construction logits: heavy tokens must receive high scores.
	rng := mathx.NewRNG(13)
	prof := SparsityProfile{HeavyFrac: 0.1, HeavyMu: 3, HeavySigma: 0.5, TailMu: -5, TailSigma: 1}
	h := GenHead(Llama3_8B, prof, 256, rng)
	q := h.Query(rng)
	scores := h.Scores(q, 256)

	// best construction-logit token should be among the top realized scores
	bestCon := 0
	for j, l := range h.Logits {
		if l > h.Logits[bestCon] {
			bestCon = j
		}
	}
	rank := 0
	for _, s := range scores {
		if s > scores[bestCon] {
			rank++
		}
	}
	if rank > 8 {
		t.Fatalf("heaviest construction token ranked %d by realized scores", rank)
	}
}

func TestFig2DistributionClaims(t *testing.T) {
	// Attention scores must span far more orders of magnitude than value
	// norms (paper Fig. 2: ~7 vs ≤2).
	rng := mathx.NewRNG(17)
	var scoreSample, normSample []float64
	for rep := 0; rep < 8; rep++ {
		prof := Profile(Llama3_8B, 15, rep%8, 1, rng.SplitAt(uint64(rep)))
		h := GenHead(Llama3_8B, prof, 512, rng.SplitAt(uint64(100+rep)))
		q := h.Query(rng)
		scores := h.Scores(q, 512)
		for _, s := range scores {
			scoreSample = append(scoreSample, float64(s))
		}
		for _, v := range h.Vals {
			normSample = append(normSample, float64(mathx.Norm2(v)))
		}
	}
	scoreOoM := stats.NewCDF(scoreSample).OrdersOfMagnitude()
	normOoM := stats.NewCDF(normSample).OrdersOfMagnitude()
	if scoreOoM < 4 {
		t.Fatalf("attention scores span only %.1f orders of magnitude", scoreOoM)
	}
	if normOoM > 2.5 {
		t.Fatalf("value norms span %.1f orders of magnitude, want <= 2.5", normOoM)
	}
	if scoreOoM < 2*normOoM {
		t.Fatalf("score spread (%.1f) should dwarf norm spread (%.1f)", scoreOoM, normOoM)
	}
}

func TestSignificanceRecentTokensNonZero(t *testing.T) {
	rng := mathx.NewRNG(19)
	prof := Profile(Llama3_8B, 8, 0, 1, rng)
	h := GenHead(Llama3_8B, prof, 96, rng)
	sig := h.SignificancePrefix(Llama3_8B, h.Len(), rng)
	if len(sig) != 96 {
		t.Fatalf("significance length %d", len(sig))
	}
	for j, s := range sig {
		if s < 0 || math.IsNaN(float64(s)) {
			t.Fatalf("invalid significance at %d: %v", j, s)
		}
	}
	// last token never receives attention; must be treated as recent (1)
	if sig[95] != 1 {
		t.Fatalf("final token significance = %v, want 1", sig[95])
	}
}

func TestSignificanceIdentifiesHeavyTokens(t *testing.T) {
	rng := mathx.NewRNG(23)
	prof := SparsityProfile{HeavyFrac: 0.05, HeavyMu: 4, HeavySigma: 0.3, TailMu: -5, TailSigma: 1}
	h := GenHead(Llama3_8B, prof, 200, rng)
	sig := h.SignificancePrefix(Llama3_8B, h.Len(), rng)

	// mean significance of construction-heavy tokens must exceed tail mean
	var heavy, tail stats.Summary
	for j := 0; j < 190; j++ { // skip the final tokens (few observations)
		if h.Logits[j] > 0 {
			heavy.Add(float64(sig[j]))
		} else {
			tail.Add(float64(sig[j]))
		}
	}
	if heavy.N() == 0 || tail.N() == 0 {
		t.Skip("degenerate draw")
	}
	if heavy.Mean() < 10*tail.Mean() {
		t.Fatalf("significance separation too weak: heavy %v vs tail %v",
			heavy.Mean(), tail.Mean())
	}
}

func TestScoreSeriesIsDistribution(t *testing.T) {
	rng := mathx.NewRNG(29)
	prof := Profile(Llama3_8B, 4, 2, 1, rng)
	s := ScoreSeries(prof, 300, rng)
	var sum float64
	for _, v := range s {
		if v < 0 {
			t.Fatal("negative score")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("scores sum to %v", sum)
	}
}

func TestCriticalTokensVaryAcrossLayers(t *testing.T) {
	// Fig. 4: the number of critical tokens differs substantially by layer.
	rng := mathx.NewRNG(31)
	n := 1024
	var perLayer []float64
	for l := 0; l < Llama3_8B.Layers; l++ {
		var s stats.Summary
		for h := 0; h < Llama3_8B.KVHeads; h++ {
			prof := Profile(Llama3_8B, l, h, 1, rng.SplitAt(uint64(l*100+h)))
			scores := ScoreSeries(prof, n, rng.SplitAt(uint64(l*1000+h)))
			s.Add(float64(CriticalTokens(scores, 0.95)))
		}
		perLayer = append(perLayer, s.Mean())
	}
	if lo, hi := slices.Min(perLayer), slices.Max(perLayer); hi < 2*lo {
		t.Fatalf("layer-to-layer critical token spread too small: min %v max %v", lo, hi)
	}
}
