package baselines

import (
	"sort"

	"diffkv/internal/mathx"
	"diffkv/internal/synth"
)

func sortSlice(idx []int, less func(a, b int) bool) {
	sort.Slice(idx, less)
}

// H2O is the heavy-hitter-oracle pruning baseline: every head keeps the
// same fixed budget of tokens — the heavy hitters by accumulated attention
// score plus a recent window — at full precision. The uniform per-head
// budget is exactly what DiffKV's per-head dynamic sparsity improves on
// (§3.3).
type H2O struct {
	// Budget is the retained fraction of tokens (default 0.5, the paper's
	// Table 1 setting).
	Budget float64
	// Window is the protected recent window (default 64).
	Window int
}

// Name implements Method.
func (H2O) Name() string { return "H2O" }

func (m H2O) budget() float64 {
	if m.Budget > 0 {
		return m.Budget
	}
	return 0.5
}

func (m H2O) window() int {
	if m.Window > 0 {
		return m.Window
	}
	return 64
}

// Evaluate implements Method.
func (m H2O) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	k := int(m.budget() * float64(n))
	if k < 1 {
		k = 1
	}
	idx := topKBySig(sig, k, m.window())
	e := probeErr(data, probes, rng, func(q []float32) []float32 {
		return subsetAttention(q, data.Keys, data.Vals, idx)
	})
	return EvalResult{
		OutputErr: e,
		MemFrac:   float64(len(idx)) / float64(n),
	}
}

// SnapKV prunes from prompt-phase observation only: token importance is
// voted by the queries of a small observation window at the end of the
// prompt, then a uniform per-head budget is kept. During generation the
// selection is frozen, so significance drift in long generations is
// invisible to it — the paper's explanation for its collapse on thinking
// models (Table 3).
type SnapKV struct {
	// Budget is the retained fraction (default 0.5).
	Budget float64
	// ObsWindow is the number of trailing prompt queries that vote
	// (default 32).
	ObsWindow int
	// PromptLen is the prompt boundary; tokens generated afterwards are
	// retained by recency within the same budget (the frozen selection
	// cannot rank them). 0 means the whole sequence is treated as prompt.
	PromptLen int
}

// Name implements Method.
func (SnapKV) Name() string { return "SnapKV" }

// Evaluate implements Method.
func (m SnapKV) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	n := data.Len()
	budget := m.Budget
	if budget <= 0 {
		budget = 0.5
	}
	obs := m.ObsWindow
	if obs <= 0 {
		obs = 32
	}
	promptLen := m.PromptLen
	if promptLen <= 0 || promptLen > n {
		promptLen = n
	}
	// observation-window voting: attention of the last `obs` prompt
	// positions over the prompt prefix
	votes := make([]float32, promptLen)
	start := promptLen - obs
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
	idx := topKBySig(votes, k, obs)
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
	e := probeErr(data, probes, rng, func(q []float32) []float32 {
		return subsetAttention(q, data.Keys, data.Vals, idx)
	})
	return EvalResult{
		OutputErr: e,
		MemFrac:   float64(len(idx)) / float64(n),
	}
}

// DuoAttention splits heads into retrieval heads (full FP16 cache) and
// streaming heads (attention-sink + recent window only). The head
// classification is offline and static; heads whose sparsity profile is
// dense but misclassified as streaming lose mid-context information.
type DuoAttention struct {
	// RetrievalFrac is the fraction of heads treated as retrieval heads
	// (default 0.5, yielding ~50% average memory).
	RetrievalFrac float64
	// Sink and Recent shape the streaming-head cache (defaults 4 / 128).
	Sink, Recent int
	// HeadIsRetrieval overrides the classification for this head (set by
	// the harness from the head's offline profile); nil means classify by
	// hashing, matching a static offline assignment.
	HeadIsRetrieval *bool
}

// Name implements Method.
func (DuoAttention) Name() string { return "DuoAttn" }

// Evaluate implements Method.
func (m DuoAttention) Evaluate(model *synth.ModelConfig, data *synth.HeadData, sig []float32, probes int, rng *mathx.RNG) EvalResult {
	frac := m.RetrievalFrac
	if frac <= 0 {
		frac = 0.5
	}
	sink := m.Sink
	if sink <= 0 {
		sink = 4
	}
	recent := m.Recent
	if recent <= 0 {
		recent = 128
	}
	retrieval := rng.Float64() < frac
	if m.HeadIsRetrieval != nil {
		retrieval = *m.HeadIsRetrieval
	}
	n := data.Len()
	if retrieval {
		e := probeErr(data, probes, rng, func(q []float32) []float32 {
			return subsetAttention(q, data.Keys, data.Vals, allIdx(n))
		})
		return EvalResult{OutputErr: e, MemFrac: 1}
	}
	// streaming: sink + recent only
	var idx []int
	for j := 0; j < sink && j < n; j++ {
		idx = append(idx, j)
	}
	for j := n - recent; j < n; j++ {
		if j >= sink && j >= 0 {
			idx = append(idx, j)
		}
	}
	e := probeErr(data, probes, rng, func(q []float32) []float32 {
		return subsetAttention(q, data.Keys, data.Vals, idx)
	})
	return EvalResult{
		OutputErr: e,
		MemFrac:   float64(len(idx)) / float64(n),
	}
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
