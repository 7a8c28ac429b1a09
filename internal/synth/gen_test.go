package synth

import (
	"math"
	"slices"
	"testing"

	"diffkv/internal/mathx"
)

func TestLogitsClusteringPreservesFraction(t *testing.T) {
	// The Markov clustering must keep the stationary heavy fraction.
	prof := SparsityProfile{HeavyFrac: 0.25, HeavyMu: 3, HeavySigma: 0.5, TailMu: -5, TailSigma: 1}
	rng := mathx.NewRNG(1)
	n := 200_000
	logits := prof.Logits(n, rng)
	heavy := 0
	for _, l := range logits {
		if l > -1 { // midpoint between modes
			heavy++
		}
	}
	frac := float64(heavy) / float64(n)
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("stationary heavy fraction = %v, want ~0.25", frac)
	}
}

func TestLogitsClusteringRunLength(t *testing.T) {
	// Heavy tokens must arrive in runs with mean length ≈ heavyRunLen.
	prof := SparsityProfile{HeavyFrac: 0.2, HeavyMu: 3, HeavySigma: 0.3, TailMu: -5, TailSigma: 0.5}
	rng := mathx.NewRNG(2)
	logits := prof.Logits(100_000, rng)
	var runs, runTokens int
	inRun := false
	for _, l := range logits {
		heavy := l > -1
		if heavy {
			runTokens++
			if !inRun {
				runs++
			}
		}
		inRun = heavy
	}
	if runs == 0 {
		t.Fatal("no heavy runs")
	}
	meanRun := float64(runTokens) / float64(runs)
	if meanRun < heavyRunLen*0.7 || meanRun > heavyRunLen*1.4 {
		t.Fatalf("mean run length = %v, want ~%v", meanRun, heavyRunLen)
	}
}

func TestGQAMaxBoostMonotone(t *testing.T) {
	if GQAMaxBoost(1) != 1 {
		t.Fatal("group of 1 must not boost")
	}
	prev := 1.0
	for _, g := range []int{2, 4, 7, 8} {
		b := GQAMaxBoost(g)
		if b <= prev {
			t.Fatalf("boost not monotone at group %d: %v <= %v", g, b, prev)
		}
		if b > 3 {
			t.Fatalf("boost implausibly large: %v", b)
		}
		prev = b
	}
}

func TestCheapSignificanceIdentifiesHeavy(t *testing.T) {
	rng := mathx.NewRNG(3)
	prof := SparsityProfile{HeavyFrac: 0.1, HeavyMu: 3.5, HeavySigma: 0.3, TailMu: -5, TailSigma: 0.5}
	data := GenHead(Llama3_8B, prof, 512, rng)
	sig := data.CheapSignificance(Llama3_8B, rng.SplitAt(1))
	var heavySum, heavyN, tailSum, tailN float64
	for j, l := range data.Logits {
		if l > -1 {
			heavySum += float64(sig[j])
			heavyN++
		} else {
			tailSum += float64(sig[j])
			tailN++
		}
	}
	if heavyN == 0 || tailN == 0 {
		t.Skip("degenerate draw")
	}
	if heavySum/heavyN < 20*(tailSum/tailN) {
		t.Fatalf("cheap significance separation too weak: %v vs %v",
			heavySum/heavyN, tailSum/tailN)
	}
	// normalized: heavy tokens should be around 1/f scale, far above 1
	if heavySum/heavyN < 1 {
		t.Fatalf("heavy normalized significance = %v, want > 1", heavySum/heavyN)
	}
}

func TestCheapSignificanceNonNegative(t *testing.T) {
	rng := mathx.NewRNG(4)
	prof := Profile(Qwen25_7B, 3, 1, 1, rng)
	data := GenHead(Qwen25_7B, prof, 256, rng)
	sig := data.CheapSignificance(Qwen25_7B, rng)
	for i, s := range sig {
		if s < 0 || math.IsNaN(float64(s)) {
			t.Fatalf("invalid significance at %d: %v", i, s)
		}
	}
}

func TestOutlierChannelsInflateKeyRange(t *testing.T) {
	// Keys must carry a few channels far above the noise floor — the
	// mechanism behind low-bit key destruction.
	rng := mathx.NewRNG(5)
	prof := Profile(Llama3_8B, 2, 0, 1, rng)
	data := GenHead(Llama3_8B, prof, 64, rng)
	k := data.Keys[0]
	minV, maxV := slices.Min(k), slices.Max(k)
	spread := float64(maxV - minV)
	if spread < float64(Llama3_8B.KeyOutlierAmp) {
		t.Fatalf("key spread %v below outlier amplitude %v", spread, Llama3_8B.KeyOutlierAmp)
	}
}

func TestOutlierChannelsPersistAcrossTokens(t *testing.T) {
	// The same channels must be outliers in every token (persistent
	// channels, not random spikes).
	rng := mathx.NewRNG(6)
	prof := Profile(Llama3_8B, 2, 0, 1, rng)
	data := GenHead(Llama3_8B, prof, 32, rng)
	// find outlier channels of token 0
	big := map[int]bool{}
	for d, v := range data.Keys[0] {
		if v > 3 || v < -3 {
			big[d] = true
		}
	}
	if len(big) == 0 {
		t.Fatal("no outlier channels found")
	}
	// those channels must be large in (almost) every other token
	for j := 1; j < 32; j++ {
		for d := range big {
			v := data.Keys[j][d]
			if v < 2 && v > -2 {
				t.Fatalf("outlier channel %d not persistent at token %d: %v", d, j, v)
			}
		}
	}
}
