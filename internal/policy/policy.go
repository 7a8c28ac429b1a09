// Package policy implements DiffKV's KV compression policy (paper §4):
// significance-score bookkeeping, the sequence-length-adaptive three-way
// classification of prompt tokens (high precision / low precision /
// pruned), and the generation-phase Algorithm 1 with its smooth downgrade
// path (high → low → pruned).
package policy

import "fmt"

// Params are the calibrated policy parameters.
type Params struct {
	// AlphaH is the high-precision threshold multiplier: token i is stored
	// at high precision when its significance exceeds AlphaH/N (generation)
	// or AlphaH/i (prompt). Profiled over [1,5] in the paper (Fig. 10).
	AlphaH float64
	// AlphaL is the low-precision threshold multiplier; below AlphaL/N the
	// token is pruned. 0 disables pruning entirely.
	AlphaL float64
	// Window is the recent window W always kept at high precision
	// (default 64).
	Window int
	// DisableLow disables the low-precision tier (used for Qwen2.5-7B,
	// whose GQA ratio of 7 makes 4-bit keys lossy — paper §7.2): tokens
	// are then either high precision (significance ≥ AlphaL/N) or pruned.
	DisableLow bool
}

// Validate fills defaults and rejects nonsensical parameters.
func (p *Params) Validate() error {
	if p.Window <= 0 {
		p.Window = 64
	}
	if p.AlphaH < 0 || p.AlphaL < 0 {
		return fmt.Errorf("policy: thresholds must be non-negative")
	}
	if !p.DisableLow && p.AlphaL > p.AlphaH {
		return fmt.Errorf("policy: AlphaL (%v) must not exceed AlphaH (%v)", p.AlphaL, p.AlphaH)
	}
	return nil
}

// Calibrated parameters from the paper's Fig. 10 profiling
// (per model family; MATH-train calibration split).
var (
	// ParamsLlama3 applies to Llama3-8B/70B and R1-Distill-Llama-8B.
	ParamsLlama3 = Params{AlphaH: 1, AlphaL: 0.02, Window: 64}
	// ParamsQwen7B disables the low tier (αl acts as the retention
	// threshold).
	ParamsQwen7B = Params{AlphaH: 1, AlphaL: 0.04, Window: 64, DisableLow: true}
	// ParamsQwen32B applies to Qwen2.5-32B, QwQ-32B and R1-Distill-Qwen-14B.
	ParamsQwen32B = Params{AlphaH: 3, AlphaL: 0, Window: 64}
)

// ParamsForModel returns the calibrated parameters for a model name,
// falling back to the Llama3 parameters.
func ParamsForModel(name string) Params {
	switch name {
	case "Qwen2.5-7B":
		return ParamsQwen7B
	case "Qwen2.5-32B", "QwQ-32B", "R1-Distill-Qwen-14B":
		return ParamsQwen32B
	default:
		return ParamsLlama3
	}
}

// Level is the three-way significance classification of a token.
type Level int

const (
	// LevelHigh stores the token at the high-precision tier (e.g. K8V4).
	LevelHigh Level = iota
	// LevelLow stores the token at the low-precision tier (e.g. K4V2).
	LevelLow
	// LevelPruned discards the token.
	LevelPruned
)

func (l Level) String() string {
	switch l {
	case LevelHigh:
		return "high"
	case LevelLow:
		return "low"
	default:
		return "pruned"
	}
}

// Significance scores throughout this package are *normalized*: each
// observed attention score is multiplied by the length of the prefix the
// scoring query attended over, so 1.0 means "exactly the theoretical
// average attention 1/N" (paper §4). The paper's threshold rule
// "score ≥ αh/N" is then exactly "normalized score ≥ αh", and the
// normalization is what makes the rule sequence-length adaptive: the same
// raw score clears the threshold more easily later in a long sequence.

// ClassifyPrompt assigns a level to every prompt token from its normalized
// significance score (average attention received × prefix length,
// max-aggregated over the GQA group — computed by the caller). The most
// recent Window tokens are always high precision to avoid premature
// compression.
func ClassifyPrompt(sig []float32, p Params) []Level {
	n := len(sig)
	out := make([]Level, n)
	for i := 0; i < n; i++ {
		if i >= n-p.Window {
			out[i] = LevelHigh
			continue
		}
		out[i] = classify(float64(sig[i]), p)
	}
	return out
}

// classify applies the threshold rule to a normalized significance score.
func classify(sig float64, p Params) Level {
	if p.DisableLow {
		if sig >= p.AlphaL {
			return LevelHigh
		}
		return LevelPruned
	}
	switch {
	case sig >= p.AlphaH:
		return LevelHigh
	case sig >= p.AlphaL:
		return LevelLow
	default:
		return LevelPruned
	}
}

// Breakdown reports the fraction of tokens at each level — the quantity of
// paper Fig. 12.
type Breakdown struct {
	High, Low, Pruned float64
}
