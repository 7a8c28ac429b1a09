// Package synth implements the synthetic transformer substrate: model
// configurations mirroring the LLMs evaluated in the paper, and a generator
// for query/key/value tensors whose attention statistics reproduce the
// distributional properties the paper measures (Figs. 2-5):
//
//   - per-token attention scores spanning many orders of magnitude while
//     value-vector norms span at most ~2 (Fig. 2),
//   - heavy-tailed per-token importance (Fig. 3),
//   - per-layer and per-head dynamic sparsity with high per-request
//     variance (Figs. 4, 5).
//
// The vectors are real float32 tensors: attention and quantization run on
// them for real, so compression-error effects (e.g. key bits mattering more
// than value bits) are computed, not assumed.
package synth

import "fmt"

// ModelConfig describes the shape of a served model. The fields mirror the
// public architecture parameters of each model family; ParamsB drives the
// execution-time cost model.
type ModelConfig struct {
	Name         string
	Layers       int
	KVHeads      int     // KV heads per layer
	QueriesPerKV int     // GQA group size
	HeadDim      int     // per-head feature dimension
	ParamsB      float64 // parameter count in billions
	MaxSeqLen    int
	// KeyOutlierAmp is the amplitude of the persistent per-head key
	// outlier channels. Real LLM keys carry a few large-magnitude channels
	// that inflate the per-vector quantization scale, which is what makes
	// low-bit keys so destructive (§3.1, and the KIVI/Atom outlier
	// literature). Models with more aggressive GQA compression (higher
	// queries-per-KV) exhibit stronger outliers — the paper's explanation
	// for Qwen2.5-7B's 4-bit key sensitivity.
	KeyOutlierAmp float64
}

// KVBytesPerTokenFP16 returns the FP16 KV-cache footprint of one token
// across all layers and KV heads (2 bytes × 2 tensors × dim × heads ×
// layers).
func (m *ModelConfig) KVBytesPerTokenFP16() int {
	return 2 * 2 * m.HeadDim * m.KVHeads * m.Layers
}

func (m *ModelConfig) String() string { return m.Name }

// The model zoo from the paper's evaluation (§7.1). Architecture parameters
// follow the public model cards; ParamsB is the nominal size.
var (
	Llama3_8B = &ModelConfig{
		Name: "Llama3-8B", Layers: 32, KVHeads: 8, QueriesPerKV: 4,
		HeadDim: 128, ParamsB: 8, MaxSeqLen: 8192,
		KeyOutlierAmp: 6,
	}
	Llama31_8B = &ModelConfig{
		Name: "Llama3.1-8B", Layers: 32, KVHeads: 8, QueriesPerKV: 4,
		HeadDim: 128, ParamsB: 8, MaxSeqLen: 32768,
		KeyOutlierAmp: 6,
	}
	Llama3_70B = &ModelConfig{
		Name: "Llama3-70B", Layers: 80, KVHeads: 8, QueriesPerKV: 8,
		HeadDim: 128, ParamsB: 70, MaxSeqLen: 8192,
		KeyOutlierAmp: 6,
	}
	Qwen25_7B = &ModelConfig{
		Name: "Qwen2.5-7B", Layers: 28, KVHeads: 4, QueriesPerKV: 7,
		HeadDim: 128, ParamsB: 7, MaxSeqLen: 32768,
		KeyOutlierAmp: 22,
	}
	Qwen25_32B = &ModelConfig{
		Name: "Qwen2.5-32B", Layers: 64, KVHeads: 8, QueriesPerKV: 5,
		HeadDim: 128, ParamsB: 32, MaxSeqLen: 32768,
		KeyOutlierAmp: 5,
	}
	QwQ_32B = &ModelConfig{
		Name: "QwQ-32B", Layers: 64, KVHeads: 8, QueriesPerKV: 5,
		HeadDim: 128, ParamsB: 32, MaxSeqLen: 32768,
		KeyOutlierAmp: 5,
	}
	R1Qwen_14B = &ModelConfig{
		Name: "R1-Distill-Qwen-14B", Layers: 48, KVHeads: 8, QueriesPerKV: 5,
		HeadDim: 128, ParamsB: 14, MaxSeqLen: 32768,
		KeyOutlierAmp: 5,
	}
	R1Llama_8B = &ModelConfig{
		Name: "R1-Distill-Llama-8B", Layers: 32, KVHeads: 8, QueriesPerKV: 4,
		HeadDim: 128, ParamsB: 8, MaxSeqLen: 32768,
		KeyOutlierAmp: 6,
	}
)

// Models lists every configured model.
var Models = []*ModelConfig{
	Llama3_8B, Llama31_8B, Llama3_70B, Qwen25_7B, Qwen25_32B,
	QwQ_32B, R1Qwen_14B, R1Llama_8B,
}

// ModelByName looks a model up by its display name.
func ModelByName(name string) (*ModelConfig, error) {
	for _, m := range Models {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("synth: unknown model %q", name)
}
