package baselines

import (
	"math"
	"testing"

	"diffkv/internal/attention"
	"diffkv/internal/mathx"
	"diffkv/internal/synth"
)

// evalHead generates one head and runs a method on it.
func evalHead(t *testing.T, m Method, model *synth.ModelConfig, n int, seed uint64) EvalResult {
	t.Helper()
	rng := mathx.NewRNG(seed)
	prof := synth.Profile(model, 8, 1, 1, rng)
	data := synth.GenHead(model, prof, n, rng.SplitAt(1))
	sig := data.SignificancePrefix(model, data.Len(), rng.SplitAt(2))
	return m.Evaluate(model, data, sig, 3, rng.SplitAt(3))
}

func TestINT4BetterThanKIVI(t *testing.T) {
	// 4-bit grouped should beat 2-bit grouped on error, at more memory.
	i4 := evalHead(t, INT4Atom{}, synth.Llama3_8B, 1024, 2)
	kv := evalHead(t, KIVI{}, synth.Llama3_8B, 1024, 2)
	if i4.OutputErr >= kv.OutputErr {
		t.Fatalf("INT4 err %v should be below KIVI %v", i4.OutputErr, kv.OutputErr)
	}
	if i4.MemFrac <= kv.MemFrac {
		t.Fatalf("INT4 mem %v should exceed KIVI %v", i4.MemFrac, kv.MemFrac)
	}
}

func TestINT4MemoryFraction(t *testing.T) {
	r := evalHead(t, INT4Atom{}, synth.Llama3_8B, 128, 3)
	// grouped K4V4 at dim 128, group 32: (64+64+64+8)/512 = 0.39
	if r.MemFrac < 0.3 || r.MemFrac > 0.45 {
		t.Fatalf("INT4 mem fraction = %v", r.MemFrac)
	}
}

func TestKIVIWindowIsExact(t *testing.T) {
	// With the 128-token residual window covering the whole sequence,
	// KIVI degenerates to FP16.
	r := evalHead(t, KIVI{}, synth.Llama3_8B, kiviResidualLen, 4)
	if r.OutputErr > 1e-5 {
		t.Fatalf("full-window KIVI should be exact: %v", r.OutputErr)
	}
	if r.MemFrac != 1 {
		t.Fatalf("full-window KIVI memory = %v", r.MemFrac)
	}
}

func TestQAQBetweenINT4AndKIVI(t *testing.T) {
	// QAQ mixes 8/4/2-bit tokens: memory sits between KIVI (2-bit) and
	// INT4 + metadata.
	r := evalHead(t, QAQ{}, synth.Llama3_8B, 512, 5)
	if r.MemFrac < 0.1 || r.MemFrac > 0.5 {
		t.Fatalf("QAQ mem fraction = %v", r.MemFrac)
	}
	if r.OutputErr <= 0 {
		t.Fatal("QAQ error should be positive")
	}
}

func TestH2OKeepsHeavyHitters(t *testing.T) {
	// With a generous budget the heavy tokens are retained, so error stays
	// moderate while memory halves.
	r := evalHead(t, H2O{}, synth.Llama3_8B, 512, 7)
	if r.OutputErr > 0.5 {
		t.Fatalf("H2O at 50%% budget error = %v", r.OutputErr)
	}
}

func TestSnapKVComparableToH2OOnPromptOnly(t *testing.T) {
	// When the whole sequence is prompt, SnapKV's observation-window
	// selection behaves like H2O's accumulated selection (same budget).
	h := evalHead(t, H2O{}, synth.Llama3_8B, 384, 8)
	s := evalHead(t, SnapKV{Budget: 0.5}, synth.Llama3_8B, 384, 8)
	if s.OutputErr > 5*h.OutputErr+0.3 {
		t.Fatalf("SnapKV error %v wildly above H2O %v", s.OutputErr, h.OutputErr)
	}
}

func TestQuestLoadingBudget(t *testing.T) {
	r := evalHead(t, Quest{Budget: 0.5}, synth.Llama3_8B, 512, 9)
	if r.MemFrac != 0.5 {
		t.Fatalf("Quest reported budget = %v", r.MemFrac)
	}
	// Quest's page selection should land the heavy tokens: error moderate
	if r.OutputErr > 0.6 {
		t.Fatalf("Quest error = %v", r.OutputErr)
	}
}

func TestQuestBeatsRandomPages(t *testing.T) {
	// The min/max envelope estimate must beat pruning the same fraction
	// without query awareness on dense heads... at minimum it should beat
	// a tiny budget of itself.
	full := evalHead(t, Quest{Budget: 0.9}, synth.Llama3_8B, 512, 10)
	tiny := evalHead(t, Quest{Budget: 0.1}, synth.Llama3_8B, 512, 10)
	if full.OutputErr > tiny.OutputErr {
		t.Fatalf("larger loading budget should not hurt: %v vs %v",
			full.OutputErr, tiny.OutputErr)
	}
}

func TestDuoAttentionRetrievalHeadExact(t *testing.T) {
	// seed 2's head stream draws a retrieval head
	r := evalHead(t, DuoAttention{}, synth.Llama3_8B, 256, 2)
	if r.OutputErr > 1e-5 {
		t.Fatalf("retrieval head should be exact: %v", r.OutputErr)
	}
	if r.MemFrac != 1 {
		t.Fatalf("retrieval head memory = %v", r.MemFrac)
	}
}

func TestDuoAttentionStreamingHeadLosesMidContext(t *testing.T) {
	// seed 12's head stream draws a streaming head
	r := evalHead(t, DuoAttention{}, synth.Llama3_8B, 512, 12)
	if r.MemFrac > 0.3 {
		t.Fatalf("streaming head memory = %v", r.MemFrac)
	}
	// dense mid-context heads suffer badly under sink+recent
	if r.OutputErr < 0.05 {
		t.Fatalf("streaming head error suspiciously low: %v", r.OutputErr)
	}
}

func TestTopKBySig(t *testing.T) {
	sig := []float32{0.9, 0.1, 0.8, 0.2, 0.3}
	idx := topKBySig(sig, 3, 1)
	// last token always kept (window); then 0 and 2 by score
	want := map[int]bool{0: true, 2: true, 4: true}
	if len(idx) != 3 {
		t.Fatalf("topK size = %d", len(idx))
	}
	for _, i := range idx {
		if !want[i] {
			t.Fatalf("unexpected index %d in %v", i, idx)
		}
	}
	// indices sorted ascending (attention iterates in order)
	for i := 1; i < len(idx); i++ {
		if idx[i] < idx[i-1] {
			t.Fatalf("indices not sorted: %v", idx)
		}
	}
	// k >= n keeps everything
	if len(topKBySig(sig, 10, 1)) != 5 {
		t.Fatal("oversized k should keep all")
	}
}

func TestSubsetAttentionFullEqualsReference(t *testing.T) {
	rng := mathx.NewRNG(13)
	prof := synth.Profile(synth.Llama3_8B, 0, 0, 1, rng)
	data := synth.GenHead(synth.Llama3_8B, prof, 64, rng)
	q := data.Query(rng)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	var sc attention.Scratch
	var scRef attention.Scratch
	out := sc.Subset(q, data.KeyCols, data.Vals, all)
	refOut := scRef.Reference(q, data.KeyCols, data.Vals)
	for i := range refOut {
		if math.Float32bits(out[i]) != math.Float32bits(refOut[i]) {
			t.Fatalf("full subset differs from reference at %d: %v vs %v", i, out[i], refOut[i])
		}
	}
}

func TestTraits(t *testing.T) {
	if TraitsQuest.ResidentMemFrac != 1 {
		t.Fatal("Quest must retain the full cache")
	}
	if TraitsAtom.FrameworkOverhead <= TraitsVLLM.FrameworkOverhead {
		t.Fatal("HF-based Atom must carry framework overhead")
	}
	d := TraitsDiffKV(0.3)
	if d.ResidentMemFrac != 0.3 || d.AttnBytesFrac != 0.3 {
		t.Fatalf("DiffKV traits = %+v", d)
	}
}

func TestMethodNamesDistinct(t *testing.T) {
	methods := []Method{INT4Atom{}, KIVI{}, QAQ{}, H2O{}, SnapKV{}, Quest{}, DuoAttention{}}
	seen := map[string]bool{}
	for _, m := range methods {
		if seen[m.Name()] {
			t.Fatalf("duplicate method name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}
