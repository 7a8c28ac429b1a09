package policy

import (
	"testing"
	"testing/quick"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

func TestParamsValidateDefaults(t *testing.T) {
	p := Params{AlphaH: 1, AlphaL: 0.02}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Window != 64 {
		t.Fatalf("default window = %d", p.Window)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []Params{
		{AlphaH: -1},
		{AlphaH: 1, AlphaL: 2}, // αl > αh
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("expected error for %+v", p)
		}
	}
	// αl > αh is fine when the low tier is disabled (αl is the retention
	// threshold there)
	ok := Params{AlphaH: 1, AlphaL: 2, DisableLow: true}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsForModel(t *testing.T) {
	if ParamsForModel("Qwen2.5-7B") != ParamsQwen7B {
		t.Fatal("Qwen2.5-7B params wrong")
	}
	if ParamsForModel("QwQ-32B") != ParamsQwen32B {
		t.Fatal("QwQ-32B params wrong")
	}
	if ParamsForModel("Llama3-8B") != ParamsLlama3 {
		t.Fatal("Llama3-8B params wrong")
	}
	if ParamsForModel("anything-else") != ParamsLlama3 {
		t.Fatal("fallback params wrong")
	}
}

func TestClassifyThresholds(t *testing.T) {
	// scores are normalized: 1.0 = theoretical average attention
	p := Params{AlphaH: 1, AlphaL: 0.1, Window: 4}
	if classify(2.0, p) != LevelHigh { // twice average
		t.Fatal("high misclassified")
	}
	if classify(0.5, p) != LevelLow { // 0.1 <= 0.5 < 1
		t.Fatal("low misclassified")
	}
	if classify(0.05, p) != LevelPruned {
		t.Fatal("pruned misclassified")
	}
	// boundary values are inclusive
	if classify(1.0, p) != LevelHigh || classify(0.1, p) != LevelLow {
		t.Fatal("boundary not inclusive")
	}
}

func TestClassifyNoPruneWhenAlphaLZero(t *testing.T) {
	p := Params{AlphaH: 1, AlphaL: 0, Window: 4}
	if classify(0, p) != LevelLow {
		t.Fatal("αl=0 must never prune")
	}
}

func TestClassifyDisableLow(t *testing.T) {
	p := Params{AlphaH: 1, AlphaL: 0.04, Window: 4, DisableLow: true}
	if classify(0.1, p) != LevelHigh { // 0.1 >= 0.04
		t.Fatal("retention misclassified")
	}
	if classify(0.001, p) != LevelPruned {
		t.Fatal("prune misclassified")
	}
}

func TestClassifyPromptWindowAlwaysHigh(t *testing.T) {
	p := Params{AlphaH: 5, AlphaL: 1, Window: 8}
	sig := make([]float32, 32) // all zero: would be pruned
	levels := ClassifyPrompt(sig, p)
	for i := 0; i < 24; i++ {
		if levels[i] != LevelPruned {
			t.Fatalf("token %d should be pruned", i)
		}
	}
	for i := 24; i < 32; i++ {
		if levels[i] != LevelHigh {
			t.Fatalf("window token %d must be high precision", i)
		}
	}
}

func TestClassifySequenceLengthAdaptive(t *testing.T) {
	// Normalization makes the rule sequence-length adaptive: the same raw
	// attention score clears the threshold more easily in longer
	// sequences (raw × N grows with N).
	p := Params{AlphaH: 1, AlphaL: 0.5, Window: 1}
	raw := 0.005
	if classify(raw*100, p) == LevelHigh {
		t.Fatal("short-sequence token should not be high precision")
	}
	if classify(raw*500, p) != LevelHigh {
		t.Fatal("long-sequence token should be high precision")
	}
}

func TestSigTracker(t *testing.T) {
	s := NewSigTracker(4)
	s.Add(2, 0.4)
	s.Add(2, 0.2)
	if got := s.Avg(2); got != 0.3 {
		t.Fatalf("Avg = %v", got)
	}
	if s.Avg(0) != 0 || s.Avg(-1) != 0 || s.Avg(100) != 0 {
		t.Fatal("unobserved positions should be 0")
	}
	// growth beyond initial size
	s.Add(100, 1)
	if s.Avg(100) != 1 {
		t.Fatal("tracker did not grow")
	}
	s.Seed(50, 0.7)
	if s.Avg(50) != 0.7 {
		t.Fatal("seed failed")
	}
}

func genManager(t *testing.T) *kvcache.Manager {
	t.Helper()
	m, err := kvcache.NewManager(kvcache.Config{
		Dim: 64, PageBytes: 4096, NumPages: 256,
		HiPrec: quant.K8V4, LoPrec: quant.K4V2,
		MaxSeqLen: 2048, Materialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mkToken(rng *mathx.RNG, dim int) (k, v []float32) {
	k = make([]float32, dim)
	v = make([]float32, dim)
	rng.NormVec(k, 1)
	rng.NormVec(v, 1)
	return
}

func TestGenPolicyWindowFill(t *testing.T) {
	m := genManager(t)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Heads[0]
	g, err := NewGenPolicy(Params{AlphaH: 1, AlphaL: 0.01, Window: 8}, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(1)
	for i := 0; i < 8; i++ {
		k, v := mkToken(rng, 64)
		res, err := g.Step(hc, k, v, int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Compressed {
			t.Fatalf("step %d compressed while window filling", i)
		}
	}
	if len(g.Window()) != 8 {
		t.Fatalf("window size = %d", len(g.Window()))
	}
	if hc.TotalTokens() != 0 {
		t.Fatal("no tokens should be cached yet")
	}
	// 9th token pushes one token out of the window
	k, v := mkToken(rng, 64)
	res, err := g.Step(hc, k, v, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compressed {
		t.Fatal("9th step should compress")
	}
	if len(g.Window()) != 8 {
		t.Fatalf("window should stay at W: %d", len(g.Window()))
	}
}

func TestGenPolicyHighCandidate(t *testing.T) {
	m := genManager(t)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Heads[0]
	g, _ := NewGenPolicy(Params{AlphaH: 1, AlphaL: 0.01, Window: 2}, 64, 128)
	rng := mathx.NewRNG(2)

	// token 0 gets a huge normalized significance -> high tier
	g.Sig.Seed(0, 5.0)
	for i := 0; i < 3; i++ {
		k, v := mkToken(rng, 64)
		if _, err := g.Step(hc, k, v, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hc.HiTokens() != 1 {
		t.Fatalf("hi tokens = %d, want 1", hc.HiTokens())
	}
	if hc.LoTokens() != 0 {
		t.Fatalf("lo tokens = %d", hc.LoTokens())
	}
}

func TestGenPolicyPruneCandidate(t *testing.T) {
	m := genManager(t)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Heads[0]
	g, _ := NewGenPolicy(Params{AlphaH: 1, AlphaL: 0.5, Window: 2}, 64, 128)
	rng := mathx.NewRNG(3)
	// no significance observed -> Avg=0 -> pruned
	for i := 0; i < 5; i++ {
		k, v := mkToken(rng, 64)
		res, err := g.Step(hc, k, v, int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Compressed && res.CandidateLevel != LevelPruned {
			t.Fatalf("expected prune, got %v", res.CandidateLevel)
		}
	}
	if hc.TotalTokens() != 0 {
		t.Fatalf("pruned tokens leaked: %d", hc.TotalTokens())
	}
}

func TestGenPolicyDowngradePath(t *testing.T) {
	// A token enters high, then loses significance relative to the
	// threshold as N grows, and must be downgraded to low — the smooth
	// downgrade path of Algorithm 1.
	m := genManager(t)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Heads[0]
	g, _ := NewGenPolicy(Params{AlphaH: 1, AlphaL: 0.001, Window: 1}, 64, 2048)
	rng := mathx.NewRNG(4)

	// token 0: normalized significance 2.0 — above αh, lands in high tier
	g.Sig.Seed(0, 2.0)
	k, v := mkToken(rng, 64)
	g.Step(hc, k, v, 0)
	k, v = mkToken(rng, 64)
	res, _ := g.Step(hc, k, v, 1)
	if res.CandidateLevel != LevelHigh || hc.HiTokens() != 1 {
		t.Fatalf("setup failed: %+v hi=%d", res, hc.HiTokens())
	}

	// token 0's running average decays below αh but stays above αl:
	// Algorithm 1 must downgrade it, not prune it
	g.Sig.Add(0, 0) // running average 1.0
	g.Sig.Add(0, 0) // 0.66
	g.Sig.Add(0, 0) // 0.5
	for i := 2; i < 12; i++ {
		k, v = mkToken(rng, 64)
		g.Sig.Seed(int(i), 3.0)
		res, err := g.Step(hc, k, v, int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Victim == VictimDowngraded {
			// token 0 downgraded: found the path
			if hc.LoTokens() == 0 {
				t.Fatal("downgrade did not land in low tier")
			}
			return
		}
	}
	t.Fatalf("downgrade path never taken (hi=%d lo=%d)", hc.HiTokens(), hc.LoTokens())
}

func TestGenPolicyVictimPrunedFromLow(t *testing.T) {
	m := genManager(t)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Heads[0]
	// αl > 0 so low victims whose score decays below αl/N get pruned
	g, _ := NewGenPolicy(Params{AlphaH: 10, AlphaL: 0.2, Window: 1}, 64, 2048)
	rng := mathx.NewRNG(5)

	// all tokens moderately significant: land in low tier
	for i := 0; i < 30; i++ {
		g.Sig.Seed(i, 0.5) // in [αl, αh): low tier
		k, v := mkToken(rng, 64)
		if _, err := g.Step(hc, k, v, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hc.LoTokens() == 0 {
		t.Fatal("no tokens in low tier")
	}
	// now decay token 3's significance to ~0 and keep stepping
	for j := 0; j < 200; j++ {
		g.Sig.Add(3, 0)
	}
	k, v := mkToken(rng, 64)
	res, err := g.Step(hc, k, v, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim != VictimPruned {
		t.Fatalf("victim action = %v, want pruned", res.Victim)
	}
}

// Property: Algorithm 1 conserves tokens — every generated token is either
// in the window, in a tier, or was explicitly pruned.
func TestGenPolicyConservationProperty(t *testing.T) {
	f := func(sigRaw []uint8) bool {
		if len(sigRaw) > 64 {
			sigRaw = sigRaw[:64]
		}
		m, err := kvcache.NewManager(kvcache.Config{
			Dim: 16, PageBytes: 2048, NumPages: 128, MaxSeqLen: 512, Materialize: true,
		})
		if err != nil {
			return false
		}
		sc, _ := m.AddSequence(1, 1)
		hc := sc.Heads[0]
		g, err := NewGenPolicy(Params{AlphaH: 1, AlphaL: 0.05, Window: 4}, 16, 64)
		if err != nil {
			return false
		}
		rng := mathx.NewRNG(7)
		pruned := 0
		for i, sv := range sigRaw {
			g.Sig.Seed(i, float32(sv)/255)
			k, v := mkToken(rng, 16)
			res, err := g.Step(hc, k, v, int32(i))
			if err != nil {
				return false
			}
			if res.Compressed && res.CandidateLevel == LevelPruned {
				pruned++
			}
			if res.Victim == VictimPruned {
				pruned++
			}
		}
		total := hc.TotalTokens() + len(g.Window()) + pruned
		return total == len(sigRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
