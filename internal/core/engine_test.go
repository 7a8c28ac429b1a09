package core

import (
	"math"
	"runtime"
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/synth"
)

func quickEngine(t *testing.T, model *synth.ModelConfig, p policy.Params) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Model:        model,
		Params:       p,
		SampleLayers: 2,
		SampleHeads:  2,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("expected error for missing model")
	}
	e, err := NewEngine(Config{Model: synth.Llama3_8B, Params: policy.ParamsLlama3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg
	if cfg.SampleLayers != 2 || cfg.SampleHeads != 2 {
		t.Fatal("sampling defaults wrong")
	}
}

func TestRunSequenceBasic(t *testing.T) {
	e := quickEngine(t, synth.Llama3_8B, policy.ParamsLlama3)
	res, err := e.RunSequence(192, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Fatal("no probes")
	}
	if math.IsNaN(res.OutputErr) || res.OutputErr < 0 {
		t.Fatalf("bad OutputErr %v", res.OutputErr)
	}
	if res.MemFrac <= 0 || res.MemFrac >= 1 {
		t.Fatalf("MemFrac = %v, want in (0,1)", res.MemFrac)
	}
	sum := res.Breakdown.High + res.Breakdown.Low + res.Breakdown.Pruned
	if math.Abs(sum-1) > 0.02 {
		t.Fatalf("breakdown does not sum to 1: %+v", res.Breakdown)
	}
}

func TestRunSequenceNearLossless(t *testing.T) {
	// DiffKV's calibrated config must be near-lossless: output error well
	// below the uniform K4V2 error (~0.7) and near the K8V4 floor.
	e := quickEngine(t, synth.Llama3_8B, policy.ParamsLlama3)
	res, err := e.RunSequence(256, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputErr > 0.35 {
		t.Fatalf("DiffKV output error too high: %v", res.OutputErr)
	}
	if res.MemFrac > 0.55 {
		t.Fatalf("DiffKV memory fraction too high: %v", res.MemFrac)
	}
}

func TestRunSequenceCompressesMoreWithHigherAlphaH(t *testing.T) {
	// Raising αh moves tokens from the high tier to low/pruned: memory
	// must drop (or stay) and error must not improve.
	e1 := quickEngine(t, synth.Llama3_8B, policy.Params{AlphaH: 1, AlphaL: 0.02, Window: 32})
	e2 := quickEngine(t, synth.Llama3_8B, policy.Params{AlphaH: 5, AlphaL: 0.02, Window: 32})
	r1, err := e1.RunSequence(192, 96, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.RunSequence(192, 96, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MemFrac > r1.MemFrac+0.02 {
		t.Fatalf("higher αh should use less memory: %v vs %v", r2.MemFrac, r1.MemFrac)
	}
	if r2.Breakdown.High > r1.Breakdown.High {
		t.Fatalf("higher αh should shrink the high tier: %v vs %v",
			r2.Breakdown.High, r1.Breakdown.High)
	}
}

func TestRunSequenceDeterministic(t *testing.T) {
	e := quickEngine(t, synth.Llama3_8B, policy.ParamsLlama3)
	a, err := e.RunSequence(128, 96, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunSequence(128, 96, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputErr != b.OutputErr || a.MemFrac != b.MemFrac {
		t.Fatal("same seed produced different results")
	}
	c, err := e.RunSequence(128, 96, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputErr == c.OutputErr {
		t.Fatal("different seeds produced identical error (suspicious)")
	}
}

func TestRunSequenceDensityScale(t *testing.T) {
	// Higher density scale (diffuse workloads like 5-shot MMLU) means
	// sparser attention and lower memory use — Fig. 12's workload
	// adaptivity.
	sparseCfg := Config{
		Model: synth.Llama3_8B, Params: policy.ParamsLlama3,
		SampleLayers: 2, SampleHeads: 2, Seed: 7, DensityScale: 2.5,
	}
	denseCfg := sparseCfg
	denseCfg.DensityScale = 0.7
	se, err := NewEngine(sparseCfg)
	if err != nil {
		t.Fatal(err)
	}
	de, err := NewEngine(denseCfg)
	if err != nil {
		t.Fatal(err)
	}
	var sMem, dMem float64
	for seed := uint64(0); seed < 3; seed++ {
		sr, err := se.RunSequence(192, 96, seed)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := de.RunSequence(192, 96, seed)
		if err != nil {
			t.Fatal(err)
		}
		sMem += sr.MemFrac
		dMem += dr.MemFrac
	}
	if sMem >= dMem {
		t.Fatalf("sparse workload should use less memory: %v vs %v", sMem/3, dMem/3)
	}
}

// TestRunSequenceFanOutBitIdentical holds RunSequence's head fan-out to a
// serial loop of runHead in (layer, head) order, reduced the way
// RunSequence reduces, under 1, 2 and 8 procs. Nine pairs are more than
// the workers and not a multiple of them. It runs in -short mode so the
// race step covers the fan-out.
func TestRunSequenceFanOutBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, model := range []*synth.ModelConfig{synth.Llama3_8B, synth.QwQ_32B} {
		e, err := NewEngine(Config{
			Model:        model,
			Params:       policy.ParamsForModel(model.Name),
			SampleLayers: 3,
			SampleHeads:  3,
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		const promptLen, genLen, seqSeed = 160, 96, 3
		want := serialSequence(t, e, promptLen, genLen, seqSeed)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := e.RunSequence(promptLen, genLen, seqSeed)
			if err != nil {
				t.Fatal(err)
			}
			if resultBits(got) != resultBits(want) {
				t.Fatalf("%s, GOMAXPROCS %d: got %+v, serial %+v", model.Name, procs, got, want)
			}
		}
	}
}

// resultBits is every SequenceResult field as raw bits.
func resultBits(r SequenceResult) [6]uint64 {
	return [6]uint64{
		math.Float64bits(r.OutputErr), math.Float64bits(r.MemFrac),
		math.Float64bits(r.Breakdown.High), math.Float64bits(r.Breakdown.Low),
		math.Float64bits(r.Breakdown.Pruned), uint64(r.Probes),
	}
}

// serialSequence is RunSequence as one loop over the sampled pairs.
func serialSequence(t *testing.T, e *Engine, promptLen, genLen int, seqSeed uint64) SequenceResult {
	t.Helper()
	cfg := e.cfg
	root := mathx.NewRNG(cfg.Seed ^ (seqSeed*0x9e3779b97f4a7c15 + 1))
	total := promptLen + genLen
	var errSum, memSum float64
	var probes, n int
	var bd policy.Breakdown
	for _, layer := range samplePoints(cfg.Model.Layers, cfg.SampleLayers) {
		for _, head := range samplePoints(cfg.Model.KVHeads, cfg.SampleHeads) {
			r, err := e.runHead(layer, head, promptLen, genLen, total, cfg.Model.HeadDim, root)
			if err != nil {
				t.Fatal(err)
			}
			errSum += r.errSum
			memSum += r.memSum
			probes += r.probes
			bd.High += r.bd.High
			bd.Low += r.bd.Low
			bd.Pruned += r.bd.Pruned
			n++
		}
	}
	if n != 9 {
		t.Fatalf("%d sampled pairs, want 9", n)
	}
	return SequenceResult{
		OutputErr: errSum / float64(probes),
		MemFrac:   memSum / float64(probes),
		Breakdown: policy.Breakdown{
			High:   bd.High / float64(n),
			Low:    bd.Low / float64(n),
			Pruned: bd.Pruned / float64(n),
		},
		Probes: probes,
	}
}

func TestSamplePoints(t *testing.T) {
	pts := samplePoints(32, 2)
	if len(pts) != 2 || pts[0] != 0 || pts[1] != 16 {
		t.Fatalf("samplePoints(32,2) = %v", pts)
	}
	all := samplePoints(3, 10)
	if len(all) != 3 {
		t.Fatalf("oversampling should clamp: %v", all)
	}
}

func TestIncrementalScoresMatchSoftmax(t *testing.T) {
	logits := []float32{1, -2, 3, 0.5}
	s := newIncrementalScores(logits)
	buf := make([]float32, len(logits))
	w := s.weightsInto(3, buf)
	// manual softmax over first 3
	e1, e2, e3 := math.Exp(1), math.Exp(-2), math.Exp(3)
	sum := e1 + e2 + e3
	if math.Abs(float64(w[0])-e1/sum) > 1e-6 {
		t.Fatalf("weight[0] = %v", w[0])
	}
	if math.Abs(float64(w[2])-e3/sum) > 1e-6 {
		t.Fatalf("weight[2] = %v", w[2])
	}
	if s.weightsInto(0, buf) != nil {
		t.Fatal("empty prefix should be nil")
	}
	// t beyond length clamps
	if len(s.weightsInto(100, buf)) != 4 {
		t.Fatal("clamp failed")
	}
}
