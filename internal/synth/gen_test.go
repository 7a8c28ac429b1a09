package synth

import (
	"math"
	"runtime"
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

func TestScoresIntoZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(7)
	data := GenHead(Llama3_8B, Profile(Llama3_8B, 8, 0, 1, rng), 130, rng)
	q := data.Query(rng)
	dst := make([]float32, data.Len())
	allocs := testing.AllocsPerRun(50, func() {
		data.ScoresInto(q, dst)
	})
	if allocs != 0 {
		t.Fatalf("ScoresInto allocated %v per run", allocs)
	}
	want := data.Scores(q, data.Len())
	for j := range want {
		if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
			t.Fatalf("ScoresInto[%d] = %v, Scores %v", j, dst[j], want[j])
		}
	}
}

// significanceByRows is SignificancePrefix on a per-row reference: every
// GQA query scored against each key row, gathered from the columns, by
// mathx.Dot, then softmaxed.
func significanceByRows(h *HeadData, model *ModelConfig, n int, qrng *mathx.RNG) []float32 {
	n = min(n, h.Len())
	sig := make([]float32, n)
	counts := make([]int, n)
	stride := 1
	if n > 512 {
		stride = n / 512
	}
	perHead := make([]float32, n)
	buf := make([]float32, n)
	q, k := make([]float32, h.Dim), make([]float32, h.Dim)
	scale := float32(1 / math.Sqrt(float64(h.Dim)))
	for t := 1; t < n; t += stride {
		clear(perHead[:t])
		for g := 0; g < model.QueriesPerKV; g++ {
			h.QueryInto(qrng, q)
			scores := buf[:t]
			for j := range scores {
				scores[j] = mathx.Dot(q, h.KeyInto(j, k)) * scale
			}
			for j, s := range mathx.Softmax(scores, scores) {
				if s > perHead[j] {
					perHead[j] = s
				}
			}
		}
		for j := 0; j < t; j++ {
			sig[j] += perHead[j] * float32(t)
			counts[j]++
		}
	}
	for j := range sig {
		if counts[j] > 0 {
			sig[j] /= float32(counts[j])
		} else {
			sig[j] = 1
		}
	}
	return sig
}

// TestSignificancePrefixMatchesRowScores holds the column-major scoring
// to the row loop bit for bit: GQA groups of 4 and 7, a prefix shorter
// than the head, and one over 512 tokens, where queries are strided.
func TestSignificancePrefixMatchesRowScores(t *testing.T) {
	for _, tc := range []struct {
		model  *ModelConfig
		tokens int
		n      int
	}{
		{Llama3_8B, 300, 300},
		{Qwen25_7B, 260, 197},
		{Llama3_8B, 1100, 1030},
	} {
		rng := mathx.NewRNG(uint64(tc.n))
		h := GenHead(tc.model, Profile(tc.model, 8, 0, 1, rng), tc.tokens, rng)
		got := h.SignificancePrefix(tc.model, tc.n, rng.SplitAt(5))
		want := significanceByRows(h, tc.model, tc.n, rng.SplitAt(5))
		if len(got) != len(want) {
			t.Fatalf("%s n=%d: %d scores, row loop %d", tc.model.Name, tc.n, len(got), len(want))
		}
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%s n=%d: sig[%d] = %v, row loop %v", tc.model.Name, tc.n, j, got[j], want[j])
			}
		}
	}
}

// TestSignificancePrefixAllocsFlat extends the zero-alloc pattern above:
// SignificancePrefix allocates its fixed buffers and nothing per stride
// step, so its count must not grow with n; and QueryInto, which fills the
// reused query buffer, draws exactly the query Query returns. The process's
// first garbage collection starts the runtime's mark workers, which counts
// as allocations; its per-call buffers can bring that collection into the
// measured runs, so one is forced first.
func TestSignificancePrefixAllocsFlat(t *testing.T) {
	runtime.GC()
	rng := mathx.NewRNG(7)
	data := GenHead(Llama3_8B, Profile(Llama3_8B, 8, 0, 1, rng), 260, rng)
	qrng := rng.SplitAt(1)
	allocsAt := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { data.SignificancePrefix(Llama3_8B, n, qrng) })
	}
	if short, long := allocsAt(130), allocsAt(260); long != short {
		t.Fatalf("SignificancePrefix allocated %v at n=130, %v at n=260", short, long)
	}

	want := data.Query(mathx.NewRNG(3))
	got := data.QueryInto(mathx.NewRNG(3), make([]float32, data.Dim))
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("QueryInto[%d] = %v, Query %v", j, got[j], want[j])
		}
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
	k := data.KeyInto(0, make([]float32, data.Dim))
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
	for d, v := range data.KeyInto(0, make([]float32, data.Dim)) {
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
			v := data.KeyCols[d][j]
			if v < 2 && v > -2 {
				t.Fatalf("outlier channel %d not persistent at token %d: %v", d, j, v)
			}
		}
	}
}
