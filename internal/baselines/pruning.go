package baselines

import (
	"diffkv/internal/mathx"
	"diffkv/internal/synth"
)

// H2O is the heavy-hitter-oracle pruning baseline: every head keeps the
// same fixed budget of tokens — the heavy hitters by accumulated attention
// score plus a recent window — at full precision. The uniform per-head
// budget is exactly what DiffKV's per-head dynamic sparsity improves on
// (§3.3). It keeps half the tokens (the paper's Table 1 setting) and
// protects a recent window of 64.
type H2O struct{}

const (
	h2oBudget = 0.5
	h2oWindow = 64
)

// Name implements Method.
func (H2O) Name() string { return "H2O" }

// Evaluate implements Method.
func (H2O) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	k := int(h2oBudget * float64(n))
	if k < 1 {
		k = 1
	}
	idx := topKBySig(sig, k, h2oWindow)
	return EvalResult{
		OutputErr: subsetErr(data, idx, probes, rng),
		MemFrac:   float64(len(idx)) / float64(n),
	}
}

// SnapKV prunes from prompt-phase observation only: token importance is
// voted by the queries of a small observation window at the end of the
// prompt, then a uniform per-head budget is kept. During generation the
// selection is frozen, so significance drift in long generations is
// invisible to it — the paper's explanation for its collapse on thinking
// models (Table 3). The last 32 prompt queries vote.
type SnapKV struct {
	// Budget is the retained fraction (default 0.5).
	Budget float64
	// PromptLen is the prompt boundary; tokens generated afterwards are
	// retained by recency within the same budget (the frozen selection
	// cannot rank them). 0 means the whole sequence is treated as prompt.
	PromptLen int
}

const snapKVObsWindow = 32

// Name implements Method.
func (SnapKV) Name() string { return "SnapKV" }

// Evaluate implements Method.
func (m SnapKV) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	budget := m.Budget
	if budget <= 0 {
		budget = 0.5
	}
	promptLen := m.PromptLen
	if promptLen <= 0 || promptLen > n {
		promptLen = n
	}
	// observation-window voting: attention of the last snapKVObsWindow
	// prompt positions over the prompt prefix
	votes := make([]float32, promptLen)
	start := promptLen - snapKVObsWindow
	if start < 1 {
		start = 1
	}
	for t := start; t < promptLen; t++ {
		q := data.Query(rng)
		scores := data.Scores(q, t)
		for j, s := range scores {
			if s > votes[j] {
				votes[j] = s
			}
		}
	}
	k := int(budget * float64(promptLen))
	if k < 1 {
		k = 1
	}
	idx := topKBySig(votes, k, snapKVObsWindow)
	// Generated tokens: the selection is frozen at prompt end, so SnapKV
	// cannot rank them by importance; it retains the budgeted fraction by
	// recency. Long chains of thought therefore lose their middle — the
	// paper's explanation for the Table 3 collapse.
	genKeep := int(budget * float64(n-promptLen))
	genStart := n - genKeep
	if genStart < promptLen {
		genStart = promptLen
	}
	for j := genStart; j < n; j++ {
		idx = append(idx, j)
	}
	return EvalResult{
		OutputErr: subsetErr(data, idx, probes, rng),
		MemFrac:   float64(len(idx)) / float64(n),
	}
}

// DuoAttention splits heads into retrieval heads (full FP16 cache) and
// streaming heads (attention-sink + recent window only). The head
// classification is offline and static; heads whose sparsity profile is
// dense but misclassified as streaming lose mid-context information.
// Half the heads are retrieval heads (about 50% average memory), drawn
// from the head's random stream like a static offline assignment, and a
// streaming head keeps 4 sink and 128 recent tokens.
type DuoAttention struct{}

const (
	duoRetrievalFrac = 0.5
	duoSink          = 4
	duoRecent        = 128
)

// Name implements Method.
func (DuoAttention) Name() string { return "DuoAttn" }

// Evaluate implements Method.
func (DuoAttention) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	retrieval := rng.Float64() < duoRetrievalFrac
	n := data.Len()
	if retrieval {
		return EvalResult{OutputErr: reconErr(data, data.KeyCols, data.Vals, probes, rng), MemFrac: 1}
	}
	// streaming: sink + recent only
	var idx []int
	for j := 0; j < duoSink && j < n; j++ {
		idx = append(idx, j)
	}
	for j := n - duoRecent; j < n; j++ {
		if j >= duoSink && j >= 0 {
			idx = append(idx, j)
		}
	}
	return EvalResult{
		OutputErr: subsetErr(data, idx, probes, rng),
		MemFrac:   float64(len(idx)) / float64(n),
	}
}
