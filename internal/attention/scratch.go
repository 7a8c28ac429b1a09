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

	// uniform-path arenas: per-call key buffer, one value arena sliced per
	// token, and per-token value metadata
	kbuf   []byte
	varena []byte
	vmeta  []float32

	// Subset's gathered row headers
	subKeys, subVals [][]float32
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
// token instead of one fresh buffer per token.
func (s *Scratch) Uniform(q []float32, keys, vals [][]float32, prec quant.Precision) []float32 {
	n := len(keys)
	dim := len(q)
	s.grow(n, dim)
	invSqrt := float32(1 / math.Sqrt(float64(dim)))

	kb := quant.PackedLen(dim, prec.KeyBits)
	vb := quant.PackedLen(dim, prec.ValBits)
	if cap(s.kbuf) < kb {
		s.kbuf = make([]byte, kb)
	}
	if cap(s.varena) < n*vb {
		s.varena = make([]byte, n*vb)
	}
	if cap(s.vmeta) < 2*n {
		s.vmeta = make([]float32, 2*n)
	}
	kbuf := s.kbuf[:kb]
	varena := s.varena[:n*vb]
	vmeta := s.vmeta[:2*n]

	logits := s.logits[:n]
	for j := 0; j < n; j++ {
		ks, kz := quant.QuantizeInto(keys[j], prec.KeyBits, kbuf)
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
// values — the FP16 baseline — into Scratch-owned buffers.
func (s *Scratch) Reference(q []float32, keys, vals [][]float32) []float32 {
	n := len(keys)
	dim := len(q)
	s.grow(n, dim)
	invSqrt := float32(1 / math.Sqrt(float64(dim)))

	logits := s.logits[:n]
	mathx.DotRows(q, keys, invSqrt, logits)
	weights := mathx.Softmax(logits, logits)

	out := s.out[:dim]
	for i := range out {
		out[i] = 0
	}
	mathx.AxpyRows(weights, vals[:n], out)
	return out
}

// Subset is Reference restricted to the rows of keys and vals listed in
// idx, taken in idx order. It gathers the row headers into Scratch storage, so the steady state
// allocates nothing.
func (s *Scratch) Subset(q []float32, keys, vals [][]float32, idx []int) []float32 {
	s.subKeys, s.subVals = s.subKeys[:0], s.subVals[:0]
	for _, j := range idx {
		s.subKeys = append(s.subKeys, keys[j])
		s.subVals = append(s.subVals, vals[j])
	}
	return s.Reference(q, s.subKeys, s.subVals)
}
