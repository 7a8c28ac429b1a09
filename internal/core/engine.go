// Package core composes the DiffKV system: the synthetic model substrate,
// the compression policy, the paged memory manager and the attention
// kernels, wired into the per-sequence pipeline of the paper (§6.1) —
// prompt-phase compression followed by autoregressive generation with
// Algorithm 1, measuring output fidelity and memory footprint as it goes.
package core

import (
	"fmt"
	"math"

	"diffkv/internal/attention"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
	"diffkv/internal/synth"
)

// Config parameterizes one engine run.
type Config struct {
	Model  *synth.ModelConfig
	Params policy.Params
	// HiPrec / LoPrec are the two storage tiers (defaults K8V4 / K4V2).
	HiPrec, LoPrec quant.Precision
	PageBytes      int
	// SampleLayers / SampleHeads bound the (layer, head) pairs simulated
	// for fidelity measurement — attention statistics are i.i.d. across
	// pairs given the per-layer profile, so a sample estimates the full
	// model (defaults 2 / 2).
	SampleLayers int
	SampleHeads  int
	// ProbeEvery measures real compressed-vs-reference attention error
	// every ProbeEvery generation steps (default 32).
	ProbeEvery int
	// DensityScale is the workload information-density divisor (see
	// synth.Profile).
	DensityScale float64
	// PerHeadThresholds enables the paper's future-work extension (§4
	// Discussion): each head scales αh by its own observed sparsity, so
	// dense heads lower the bar (keeping more of their many useful
	// tokens) and sparse heads raise it. The paper uses shared thresholds
	// and argues they suffice; the abl-perhead experiment quantifies the
	// difference.
	PerHeadThresholds bool
	Seed              uint64
}

func (c *Config) validate() error {
	if c.Model == nil {
		return fmt.Errorf("core: Model is required")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.HiPrec == (quant.Precision{}) {
		c.HiPrec = quant.K8V4
	}
	if c.LoPrec == (quant.Precision{}) {
		c.LoPrec = quant.K4V2
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 8192
	}
	if c.SampleLayers <= 0 {
		c.SampleLayers = 2
	}
	if c.SampleHeads <= 0 {
		c.SampleHeads = 2
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 32
	}
	if c.DensityScale <= 0 {
		c.DensityScale = 1
	}
	return nil
}

// SequenceResult summarizes one sequence run.
type SequenceResult struct {
	// OutputErr is the mean relative L2 error of compressed attention
	// outputs against the FP16 reference across probes, layers and heads.
	OutputErr float64
	// MemFrac is the KV-cache bytes (payload+metadata+window) divided by
	// the vLLM FP16 KV bytes for the same tokens, averaged over probes.
	MemFrac float64
	// Breakdown is the final fraction of tokens per tier (Fig. 12).
	Breakdown policy.Breakdown
	// Probes is the number of fidelity probes taken.
	Probes int
}

// Engine runs DiffKV sequences against the synthetic substrate.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// vLLM FP16 KV payload per token per head (no quantization metadata): K and
// V at 2 bytes per element.
func fp16TokenBytes(dim int) int { return 4 * dim }

// RunSequence simulates one request of promptLen prompt tokens and genLen
// generated tokens through the full DiffKV pipeline and reports fidelity
// and memory.
func (e *Engine) RunSequence(promptLen, genLen int, seqSeed uint64) (SequenceResult, error) {
	cfg := e.cfg
	model := cfg.Model
	dim := model.HeadDim
	total := promptLen + genLen
	root := mathx.NewRNG(cfg.Seed ^ (seqSeed*0x9e3779b97f4a7c15 + 1))

	// pick evenly spaced layers and heads to sample
	layers := samplePoints(model.Layers, cfg.SampleLayers)
	heads := samplePoints(model.KVHeads, cfg.SampleHeads)

	var errSum, memSum float64
	var probes int
	var bd policy.Breakdown
	var bdN int

	for _, layer := range layers {
		for _, head := range heads {
			r, err := e.runHead(layer, head, promptLen, genLen, total, dim, root)
			if err != nil {
				return SequenceResult{}, err
			}
			errSum += r.errSum
			memSum += r.memSum
			probes += r.probes
			bd.High += r.bd.High
			bd.Low += r.bd.Low
			bd.Pruned += r.bd.Pruned
			bdN++
		}
	}
	if probes == 0 {
		return SequenceResult{}, fmt.Errorf("core: no probes taken (genLen %d too short?)", genLen)
	}
	return SequenceResult{
		OutputErr: errSum / float64(probes),
		MemFrac:   memSum / float64(probes),
		Breakdown: policy.Breakdown{
			High:   bd.High / float64(bdN),
			Low:    bd.Low / float64(bdN),
			Pruned: bd.Pruned / float64(bdN),
		},
		Probes: probes,
	}, nil
}

type headRun struct {
	errSum float64
	memSum float64
	probes int
	bd     policy.Breakdown
}

func (e *Engine) runHead(layer, head, promptLen, genLen, total, dim int, root *mathx.RNG) (headRun, error) {
	cfg := e.cfg
	model := cfg.Model
	hseed := uint64(layer)*1000 + uint64(head)
	reqRNG := root.SplitAt(hseed)
	prof := synth.Profile(model, layer, head, cfg.DensityScale, reqRNG)
	data := synth.GenHead(model, prof, total, reqRNG.SplitAt(1))

	params := cfg.Params
	if cfg.PerHeadThresholds {
		// reference sparsity 0.3: heads denser than that relax αh, heads
		// sparser tighten it, within [0.5x, 2x]
		scale := mathx.Clamp(0.3/prof.HeavyFrac, 0.5, 2)
		params.AlphaH *= scale
	}

	// one manager per head keeps page accounting independent
	pages := 4 * (total/e.tokensPerHiPage(dim) + 2)
	mgr, err := kvcache.NewManager(kvcache.Config{
		Dim: dim, PageBytes: cfg.PageBytes, NumPages: pages,
		HiPrec: cfg.HiPrec, LoPrec: cfg.LoPrec,
		MaxSeqLen: total + 1, Materialize: true,
	})
	if err != nil {
		return headRun{}, err
	}
	sc, err := mgr.AddSequence(0, 1)
	if err != nil {
		return headRun{}, err
	}
	hc := sc.Heads[0]

	gp, err := policy.NewGenPolicy(params, dim, total)
	if err != nil {
		return headRun{}, err
	}

	// ---- prompt phase ----
	// significance from real attention over the prompt (max-aggregated
	// across the GQA group inside SignificancePrefix)
	sig := data.SignificancePrefix(model, promptLen, reqRNG.SplitAt(2))
	levels := policy.ClassifyPrompt(sig, params)
	for i := 0; i < promptLen; i++ {
		gp.Sig.Seed(i, sig[i])
		switch levels[i] {
		case policy.LevelHigh:
			err = hc.AppendToken(kvcache.LevelHi, data.Keys[i], data.Vals[i], sig[i], int32(i))
		case policy.LevelLow:
			err = hc.AppendToken(kvcache.LevelLo, data.Keys[i], data.Vals[i], sig[i], int32(i))
		}
		if err != nil {
			return headRun{}, err
		}
	}

	// ---- generation phase ----
	run := headRun{}
	expScores := newIncrementalScores(data.Logits)
	boost := float32(synth.GQAMaxBoost(model.QueriesPerKV))
	// kernel scratch reused across every probe of this head (one for the
	// compressed path, one for the reference, so both outputs stay live)
	var scComp, scRef attention.Scratch
	wbuf := make([]float32, total)
	for t := promptLen; t < total; t++ {
		// significance update: attention weights over the prefix,
		// observed from the substrate's incremental softmax (cheap path);
		// probes below use the real kernels. Scores are normalized by the
		// prefix length (see policy package docs) and inflated by the GQA
		// max-aggregation factor, matching the prompt-phase measurement.
		weights := expScores.weightsInto(t, wbuf)
		for pos, w := range weights {
			gp.Sig.Add(pos, w*float32(t)*boost)
		}

		step := t - promptLen
		if step%cfg.ProbeEvery == 0 {
			probeErr, memFrac := e.probe(data, hc, gp, &scComp, &scRef, t, dim, reqRNG.SplitAt(3000+uint64(t)))
			run.errSum += probeErr
			run.memSum += memFrac
			run.probes++
		}

		if _, err := gp.Step(hc, data.Keys[t], data.Vals[t], int32(t)); err != nil {
			return headRun{}, err
		}
	}

	cached := float64(hc.TotalTokens() + len(gp.Window()))
	run.bd = policy.Breakdown{
		High:   (float64(hc.HiTokens()) + float64(len(gp.Window()))) / float64(total),
		Low:    float64(hc.LoTokens()) / float64(total),
		Pruned: (float64(total) - cached) / float64(total),
	}
	return run, nil
}

// probe measures real compressed-vs-reference attention error and the
// instantaneous memory fraction at step t. scComp and scRef are the
// caller's reusable kernel scratches (separate so both outputs stay valid
// for the error computation).
func (e *Engine) probe(data *synth.HeadData, hc *kvcache.HeadCache, gp *policy.GenPolicy, scComp, scRef *attention.Scratch, t, dim int, rng *mathx.RNG) (outErr, memFrac float64) {
	group := e.cfg.Model.QueriesPerKV
	if group > 4 {
		group = 4 // probing more query heads adds cost, not information
	}
	for g := 0; g < group; g++ {
		q := data.Query(rng)
		comp := scComp.Compressed(q, hc, gp.Window())
		ref := scRef.Reference(q, data.Keys[:t], data.Vals[:t])
		outErr += attention.OutputError(comp.Output, ref.Output)
	}
	outErr /= float64(group)

	kvBytes := float64(hc.KVBytes()) +
		float64(len(gp.Window())*quant.FP16.TokenBytes(dim))
	memFrac = kvBytes / float64(t*fp16TokenBytes(dim))
	return outErr, memFrac
}

// incrementalScores computes softmax attention weights over a growing
// prefix of fixed logits in O(prefix) per step using precomputed
// exponentials.
type incrementalScores struct {
	exps []float64
}

func newIncrementalScores(logits []float32) *incrementalScores {
	s := &incrementalScores{exps: make([]float64, 0, len(logits))}
	for _, l := range logits {
		x := float64(l)
		// logits are bounded (~[-12, 8]) by construction; clamp for safety
		if x > 60 {
			x = 60
		}
		s.exps = append(s.exps, math.Exp(x))
	}
	return s
}

// weightsInto writes the attention distribution of the token at position t
// over positions [0, t) into dst and returns dst[:t]. dst must have at
// least t capacity; the caller reuses one buffer across steps.
func (s *incrementalScores) weightsInto(t int, dst []float32) []float32 {
	if t <= 0 {
		return nil
	}
	if t > len(s.exps) {
		t = len(s.exps)
	}
	var sum float64
	for _, e := range s.exps[:t] {
		sum += e
	}
	out := dst[:t]
	inv := 1 / sum
	for j := 0; j < t; j++ {
		out[j] = float32(s.exps[j] * inv)
	}
	return out
}

func samplePoints(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * n / k
	}
	return out
}

func (e *Engine) tokensPerHiPage(dim int) int {
	return kvcache.TokensPerPage(e.cfg.PageBytes, dim, e.cfg.HiPrec)
}
