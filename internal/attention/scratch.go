package attention

import (
	"math"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
)

// Scratch is the reusable kernel context of the attention path. A Scratch
// owns every buffer the kernels need (logits, output, quantization arenas),
// so the steady-state hot path performs zero allocations: buffers grow on
// the first calls and are reused afterwards.
//
// The output a Scratch method returns aliases Scratch storage and stays
// valid only until the next call on the same Scratch. A Scratch is not safe for
// concurrent use; each worker keeps its own.
type Scratch struct {
	logits []float32
	out    []float32

	// uniform-path arenas: the gathered key row and its packed bytes, one
	// value arena sliced per token, and per-token value metadata
	krow   []float32
	kbuf   []byte
	varena []byte
	vmeta  []float32

	// Subset's scores over a dense keep set's whole prefix and its
	// gathered value rows
	prefix  []float32
	subVals [][]float32
}

// grow readies the shared buffers for n tokens at dimension dim.
func (s *Scratch) grow(n, dim int) {
	if cap(s.logits) < n {
		s.logits = make([]float32, 0, max(2*cap(s.logits), n))
	}
	if cap(s.out) < dim {
		s.out = make([]float32, dim)
	}
}

// Compressed computes attention over a DiffKV head cache plus the
// uncompressed recent window, iterating unified pages directly: one batched
// fused-dot call per page for the keys and one batched fused-axpy call per
// page for the values (high-precision pages first, then low-precision, then
// the window — the warp iteration order of the paper's kernel, §6.2).
func (s *Scratch) Compressed(q []float32, hc *kvcache.HeadCache, window []policy.WindowToken) []float32 {
	dim := len(q)
	invSqrt := float32(1 / math.Sqrt(float64(dim)))
	total := hc.TotalTokens() + len(window)
	s.grow(total, dim)

	logits := s.logits[:0]

	// ---- key pass: page-granular fused dequantize-dot ----
	for _, level := range [2]kvcache.Level{kvcache.LevelHi, kvcache.LevelLo} {
		for i, n := 0, hc.PageCount(level); i < n; i++ {
			p := hc.PageAt(level, i)
			if p.N == 0 {
				continue
			}
			off := len(logits)
			logits = logits[:off+p.N]
			kd, km := p.KeySlots()
			quant.DequantDotSlots(q, kd, p.Prec.KeyBits, p.N, km, logits[off:])
			for j := off; j < len(logits); j++ {
				logits[j] *= invSqrt
			}
		}
	}
	for _, w := range window {
		logits = append(logits, mathx.Dot(q, w.Key)*invSqrt)
	}

	weights := mathx.Softmax(logits, logits)

	// ---- value pass: page-granular fused dequantize-axpy, same order ----
	out := s.out[:dim]
	for i := range out {
		out[i] = 0
	}
	idx := 0
	for _, level := range [2]kvcache.Level{kvcache.LevelHi, kvcache.LevelLo} {
		for i, n := 0, hc.PageCount(level); i < n; i++ {
			p := hc.PageAt(level, i)
			if p.N == 0 {
				continue
			}
			vd, vm := p.ValSlots()
			quant.DequantAxpySlots(weights[idx:idx+p.N], vd, p.Prec.ValBits, dim, vm, out)
			idx += p.N
		}
	}
	for _, w := range window {
		mathx.Axpy(weights[idx], w.Val, out)
		idx++
	}
	return out
}

// Uniform computes attention with every key/value quantized at one
// precision, quantizing values into a single preallocated arena sliced per
// token instead of one fresh buffer per token. Keys come by column, as
// Reference takes them: each token's key row is gathered into Scratch
// storage and quantized from there.
func (s *Scratch) Uniform(q []float32, keyCols, vals [][]float32, prec quant.Precision) []float32 {
	n := len(vals)
	dim := len(q)
	s.grow(n, dim)
	invSqrt := float32(1 / math.Sqrt(float64(dim)))

	kb := quant.PackedLen(dim, prec.KeyBits)
	vb := quant.PackedLen(dim, prec.ValBits)
	if cap(s.krow) < dim {
		s.krow = make([]float32, dim)
	}
	if cap(s.kbuf) < kb {
		s.kbuf = make([]byte, kb)
	}
	if cap(s.varena) < n*vb {
		s.varena = make([]byte, n*vb)
	}
	if cap(s.vmeta) < 2*n {
		s.vmeta = make([]float32, 2*n)
	}
	krow := s.krow[:dim]
	kbuf := s.kbuf[:kb]
	varena := s.varena[:n*vb]
	vmeta := s.vmeta[:2*n]

	logits := s.logits[:n]
	for j := 0; j < n; j++ {
		for d, c := range keyCols {
			krow[d] = c[j]
		}
		ks, kz := quant.QuantizeInto(krow, prec.KeyBits, kbuf)
		logits[j] = quant.DequantDot(q, kbuf, prec.KeyBits, ks, kz) * invSqrt
		vs, vz := quant.QuantizeInto(vals[j], prec.ValBits, varena[j*vb:(j+1)*vb])
		vmeta[2*j], vmeta[2*j+1] = vs, vz
	}
	weights := mathx.Softmax(logits, logits)

	out := s.out[:dim]
	for i := range out {
		out[i] = 0
	}
	quant.DequantAxpySlots(weights, varena, prec.ValBits, dim, vmeta, out)
	return out
}

// Reference computes exact attention of query q over uncompressed keys and
// values — the FP16 baseline — into Scratch-owned buffers. The keys come
// by column (keyCols[d][j] is channel d of token j, as synth.HeadData
// stores them), one column per element of q, each holding at least
// len(vals) tokens; the values come one row per token.
func (s *Scratch) Reference(q []float32, keyCols, vals [][]float32) []float32 {
	n := len(vals)
	s.grow(n, len(q))
	logits := s.logits[:n]
	mathx.DotCols(q, keyCols, float32(1/math.Sqrt(float64(len(q)))), logits)
	return s.attend(logits, vals, len(q))
}

// attend softmaxes logits in place and returns the weighted sum of vals
// (one dim-element row per logit) in Scratch storage.
func (s *Scratch) attend(logits []float32, vals [][]float32, dim int) []float32 {
	weights := mathx.Softmax(logits, logits)
	out := s.out[:dim]
	clear(out)
	mathx.AxpyRows(weights, vals, out)
	return out
}

// subsetDense is the keep density from which Subset scores the whole
// prefix up to its last listed token: DotCols streams a column at about
// 1/8 of the cost per element of the indexed loads DotColsAt makes
// (BenchmarkSubset, 512 tokens at dim 128, 2-vCPU amd64: 3.9, 9.6-10.8
// and 17.1-17.9 µs gathered at 8, 25 and 50 % kept, 5.1, 6.4 and 8.4 µs
// over the prefix).
const subsetDense = 8

// Subset is Reference restricted to the tokens listed in idx, taken in idx
// order, and every bit equals Reference over the gathered rows. A sparse
// keep set is scored where it lies in keyCols (DotColsAt), in work
// proportional to len(idx); a dense one, at least 1/subsetDense of the
// prefix up to its last listed token, is scored over that whole prefix
// (DotCols) and the listed scores are selected. The value row headers are
// gathered into Scratch storage, so the steady state allocates nothing.
func (s *Scratch) Subset(q []float32, keyCols, vals [][]float32, idx []int) []float32 {
	s.grow(len(idx), len(q))
	logits := s.logits[:len(idx)]
	scale := float32(1 / math.Sqrt(float64(len(q))))
	m := 0
	for _, j := range idx {
		m = max(m, j+1)
	}
	if subsetDense*len(idx) < m {
		mathx.DotColsAt(q, keyCols, idx, scale, logits)
	} else {
		if cap(s.prefix) < m {
			s.prefix = make([]float32, max(2*cap(s.prefix), m))
		}
		prefix := s.prefix[:m]
		mathx.DotCols(q, keyCols, scale, prefix)
		for k, j := range idx {
			logits[k] = prefix[j]
		}
	}
	s.subVals = s.subVals[:0]
	for _, j := range idx {
		s.subVals = append(s.subVals, vals[j])
	}
	return s.attend(logits, s.subVals, len(q))
}
