package synth

import (
	"math"

	"diffkv/internal/mathx"
)

// HeadData holds the real float32 tensors of one (layer, KV-head) pair for
// one request: keys and values for every token, plus the ground-truth
// attention logits used to construct the keys (handy for tests; attention
// itself recomputes scores from the vectors).
type HeadData struct {
	Dim    int
	Keys   [][]float32 // [token][dim]
	Vals   [][]float32 // [token][dim]
	Logits []float32   // construction logits (q·k/√d ≈ Logits + noise)
	dir    []float32   // shared key direction (unit vector)

	// Persistent key outlier channels: a few channels where every key
	// carries a large fixed-sign magnitude. They contribute an (almost)
	// token-constant logit offset — invisible to softmax — but inflate the
	// per-vector quantization scale, which is the mechanism that makes
	// low-bit keys destructive (§3.1).
	outlierIdx  []int
	outlierSign []float32
	outlierAmp  float32
}

// numOutlierChannels is the count of persistent key outlier channels per
// head.
const numOutlierChannels = 4

// Len returns the number of tokens.
func (h *HeadData) Len() int { return len(h.Keys) }

// GenHead generates keys and values for n tokens of one (layer, head) pair.
//
// Construction: a unit direction u is drawn per head; token j's key is
// k_j = l_j·u + ε with l_j the target attention logit, so a query aligned
// with u (norm ≈ √dim) produces q·k_j/√dim ≈ l_j. Values are random
// directions with log-normal norms whose spread stays within ~2 orders of
// magnitude (Fig. 2's value-norm claim).
func GenHead(model *ModelConfig, prof SparsityProfile, n int, rng *mathx.RNG) *HeadData {
	dim := model.HeadDim
	h := &HeadData{
		Dim:    dim,
		Keys:   make([][]float32, n),
		Vals:   make([][]float32, n),
		Logits: prof.Logits(n, rng),
		dir:    make([]float32, dim),
	}
	rng.NormVec(h.dir, 1)
	normalize(h.dir)

	// fixed outlier channels for this head
	h.outlierAmp = float32(model.KeyOutlierAmp)
	if h.outlierAmp > 0 {
		h.outlierIdx = make([]int, numOutlierChannels)
		h.outlierSign = make([]float32, numOutlierChannels)
		for c := range h.outlierIdx {
			h.outlierIdx[c] = rng.Intn(dim)
			if rng.Float64() < 0.5 {
				h.outlierSign[c] = -1
			} else {
				h.outlierSign[c] = 1
			}
		}
	}

	noise := 1.0 / math.Sqrt(float64(dim)) // keeps |k| ≈ O(1..l_j)
	for j := 0; j < n; j++ {
		k := make([]float32, dim)
		rng.NormVec(k, noise)
		mathx.Axpy(h.Logits[j], h.dir, k)
		for c, idx := range h.outlierIdx {
			// ~10% per-token jitter keeps the offset nearly constant
			// across tokens (softmax-invariant) while staying realistic
			k[idx] += h.outlierAmp * h.outlierSign[c] * float32(1+0.1*rng.Norm())
		}
		h.Keys[j] = k

		v := make([]float32, dim)
		rng.NormVec(v, 1)
		normalize(v)
		// value norms: log-normal, sigma 0.45 -> ~99.7% inside a 15x band
		norm := float32(rng.LogNorm(0, 0.45))
		mathx.Scale(norm, v)
		h.Vals[j] = v
	}
	return h
}

// Query produces one query vector aligned with the head's key direction:
// q = √dim·u + ε. Each query-head in a GQA group calls this with its own
// rng, giving correlated but distinct queries.
func (h *HeadData) Query(rng *mathx.RNG) []float32 {
	q := make([]float32, h.Dim)
	rng.NormVec(q, 0.3)
	mathx.Axpy(float32(math.Sqrt(float64(h.Dim))), h.dir, q)
	return q
}

// Scores computes the true softmax attention scores of query q over the
// first n tokens (causal prefix).
func (h *HeadData) Scores(q []float32, n int) []float32 {
	logits := make([]float32, n)
	invSqrt := float32(1 / math.Sqrt(float64(h.Dim)))
	for j := 0; j < n; j++ {
		logits[j] = mathx.Dot(q, h.Keys[j]) * invSqrt
	}
	return mathx.Softmax(logits, logits)
}

// SignificancePrefix computes per-token significance scores for the prompt
// phase exactly as the paper specifies (§4), over the first n tokens only
// (the prompt prefix of a longer pre-generated sequence): token i's score
// is the average of the attention it receives from subsequent tokens,
// max-aggregated across the query heads of the GQA group.
//
// Queries for steps 1..n-1 are generated on the fly from qrng.
func (h *HeadData) SignificancePrefix(model *ModelConfig, n int, qrng *mathx.RNG) []float32 {
	if n > h.Len() {
		n = h.Len()
	}
	sig := make([]float32, n)
	counts := make([]int, n)
	group := model.QueriesPerKV
	// For tractability sample queries at a stride when sequences are long:
	// every token still receives scores from ≥64 subsequent positions.
	stride := 1
	if n > 512 {
		stride = n / 512
	}
	perHead := make([]float32, n)
	for t := 1; t < n; t += stride {
		for i := range perHead[:t] {
			perHead[i] = 0
		}
		for g := 0; g < group; g++ {
			q := h.Query(qrng)
			scores := h.Scores(q, t)
			for j, s := range scores {
				if s > perHead[j] {
					perHead[j] = s // max over query heads in the group
				}
			}
		}
		for j := 0; j < t; j++ {
			// normalized significance: score × prefix length, so 1.0 is
			// the theoretical average attention (see policy package docs)
			sig[j] += perHead[j] * float32(t)
			counts[j]++
		}
	}
	for j := range sig {
		if counts[j] > 0 {
			sig[j] /= float32(counts[j])
		} else {
			// final tokens received no queries; treat as exactly average
			sig[j] = 1
		}
	}
	return sig
}

func normalize(x []float32) {
	n := mathx.Norm2(x)
	if n == 0 {
		x[0] = 1
		return
	}
	mathx.Scale(1/n, x)
}

// CheapSignificance computes normalized significance scores in O(n) from
// the construction logits (softmax × sequence length × GQA max boost, with
// per-token measurement noise) — the fast path for baseline selection and
// large-scale experiments, where running the O(n²·d) attention-based
// estimate per head would dominate runtime.
func (h *HeadData) CheapSignificance(model *ModelConfig, rng *mathx.RNG) []float32 {
	n := h.Len()
	sig := make([]float32, n)
	copy(sig, h.Logits)
	mathx.Softmax(sig, sig)
	boost := float32(GQAMaxBoost(model.QueriesPerKV))
	for i := range sig {
		noise := float32(1 + 0.15*rng.Norm())
		if noise < 0.1 {
			noise = 0.1
		}
		sig[i] *= float32(n) * boost * noise
	}
	return sig
}

// GQAMaxBoost estimates how much max-aggregation across a GQA group of
// size g inflates a token's observed attention score relative to a single
// query head: with per-head logit jitter σ≈0.3, the expected max of g
// standard normals is ≈ √(2·ln g), so the max weight is ≈ e^{0.3·√(2·ln g)}
// times the single-head weight. The paper profiles αh above 1 precisely to
// account for this inflation (§7.2, "Parameter Calibration").
func GQAMaxBoost(group int) float64 {
	if group <= 1 {
		return 1
	}
	return math.Exp(0.3 * math.Sqrt(2*math.Log(float64(group))))
}

// ScoreSeries is the fast, vector-free path used by sparsity-counting and
// serving experiments: it produces per-token significance scores directly
// from the profile (softmax of the construction logits plus per-query
// measurement noise), avoiding O(n²·dim) attention computation.
func ScoreSeries(prof SparsityProfile, n int, rng *mathx.RNG) []float32 {
	logits := prof.Logits(n, rng)
	// measurement noise: each token's observed mean score wobbles
	for i := range logits {
		logits[i] += float32(0.3 * rng.Norm())
	}
	return mathx.Softmax(logits, logits)
}
