package quant

// Bit-width-specialized decode loops and page-granular batched kernels.
//
// A generic loop would recompute i/perByte and a variable shift for every
// element; only QuantizeInto's 1-bit packing still does. The loops below,
// like QuantizeInto's 8-, 4- and 2-bit ones, touch each packed byte once and
// move its 8/bits values with constant shifts — the Go analogue of the
// paper's CUDA kernel decoding a full register per instruction (§6.2). The
// *Slots variants process every occupied slot of a unified page in one call,
// so the attention path pays bit-width dispatch and the q-summation term
// once per page rather than once per token, and they decode four slots per
// pass with one accumulator each, keeping every slot's summation order.
// On amd64 outside the race detector those four-slot passes are SSE2
// (kernels_amd64.s): each lane runs one slot's (dot) or one element's
// (axpy) scalar chain in the Go body's order, multiplying and adding where
// the Go body rounds, so every bit equals dotPacked4Go's and
// axpyPacked4Go's. QuantizeInto's min/max scan and its 8-, 4- and 2-bit
// code loops have SSE2 bodies there as well (minMaxKernel, codesKernel).

import "fmt"

// sum32 returns the sum of q's elements (the Σq term shared by every slot of
// a page in the fused dot kernel).
func sum32(q []float32) float32 {
	var s float32
	for _, v := range q {
		s += v
	}
	return s
}

// dotPacked returns dot(q, Q) over len(q) packed b-bit codes, decoding one
// loaded byte at a time.
func dotPacked(q []float32, data []byte, bits int) float32 {
	n := len(q)
	var s float32
	switch bits {
	case 8:
		for i, qv := range q {
			s += float32(qv * float32(data[i]))
		}
	case 4:
		i := 0
		for ; i+2 <= n; i += 2 {
			b := data[i>>1]
			s += float32(q[i]*float32(b&0x0f)) + float32(q[i+1]*float32(b>>4))
		}
		if i < n {
			s += float32(q[i] * float32(data[i>>1]&0x0f))
		}
	case 2:
		i := 0
		for ; i+4 <= n; i += 4 {
			b := data[i>>2]
			s += float32(q[i]*float32(b&3)) + float32(q[i+1]*float32((b>>2)&3)) +
				float32(q[i+2]*float32((b>>4)&3)) + float32(q[i+3]*float32(b>>6))
		}
		for ; i < n; i++ {
			s += float32(q[i] * float32((data[i>>2]>>uint((i&3)*2))&3))
		}
	case 1:
		i := 0
		for ; i+8 <= n; i += 8 {
			b := data[i>>3]
			s += float32(q[i]*float32(b&1)) + float32(q[i+1]*float32((b>>1)&1)) +
				float32(q[i+2]*float32((b>>2)&1)) + float32(q[i+3]*float32((b>>3)&1)) +
				float32(q[i+4]*float32((b>>4)&1)) + float32(q[i+5]*float32((b>>5)&1)) +
				float32(q[i+6]*float32((b>>6)&1)) + float32(q[i+7]*float32(b>>7))
		}
		for ; i < n; i++ {
			s += float32(q[i] * float32((data[i>>3]>>uint(i&7))&1))
		}
	default:
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	return s
}

// dotSumPacked returns (dot(q, Q), Σq) in a single pass — the single-vector
// variant of dotPacked for callers that cannot amortize Σq across a page.
func dotSumPacked(q []float32, data []byte, bits int) (dot, sum float32) {
	n := len(q)
	switch bits {
	case 8:
		for i, qv := range q {
			dot += float32(qv * float32(data[i]))
			sum += qv
		}
	case 4:
		i := 0
		for ; i+2 <= n; i += 2 {
			b := data[i>>1]
			q0, q1 := q[i], q[i+1]
			dot += float32(q0*float32(b&0x0f)) + float32(q1*float32(b>>4))
			sum += q0 + q1
		}
		if i < n {
			dot += float32(q[i] * float32(data[i>>1]&0x0f))
			sum += q[i]
		}
	case 2:
		i := 0
		for ; i+4 <= n; i += 4 {
			b := data[i>>2]
			q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
			dot += float32(q0*float32(b&3)) + float32(q1*float32((b>>2)&3)) +
				float32(q2*float32((b>>4)&3)) + float32(q3*float32(b>>6))
			sum += q0 + q1 + q2 + q3
		}
		for ; i < n; i++ {
			dot += float32(q[i] * float32((data[i>>2]>>uint((i&3)*2))&3))
			sum += q[i]
		}
	case 1:
		i := 0
		for ; i+8 <= n; i += 8 {
			b := data[i>>3]
			dot += float32(q[i]*float32(b&1)) + float32(q[i+1]*float32((b>>1)&1)) +
				float32(q[i+2]*float32((b>>2)&1)) + float32(q[i+3]*float32((b>>3)&1)) +
				float32(q[i+4]*float32((b>>4)&1)) + float32(q[i+5]*float32((b>>5)&1)) +
				float32(q[i+6]*float32((b>>6)&1)) + float32(q[i+7]*float32(b>>7))
			sum += q[i] + q[i+1] + q[i+2] + q[i+3] + q[i+4] + q[i+5] + q[i+6] + q[i+7]
		}
		for ; i < n; i++ {
			dot += float32(q[i] * float32((data[i>>3]>>uint(i&7))&1))
			sum += q[i]
		}
	default:
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	return dot, sum
}

// dotF16 returns dot(q, unpacked binary16 data).
func dotF16(q []float32, data []byte) float32 {
	var s float32
	for i := range q {
		h := uint16(data[2*i]) | uint16(data[2*i+1])<<8
		s += float32(q[i] * F16ToF32(h))
	}
	return s
}

// axpyPacked computes dst[i] += ws*code_i + wz for n packed b-bit codes —
// the inner loop of the fused value kernel with the weight·scale and
// weight·zero products already folded in.
func axpyPacked(ws, wz float32, data []byte, bits, n int, dst []float32) {
	switch bits {
	case 8:
		for i := 0; i < n; i++ {
			dst[i] += float32(ws*float32(data[i])) + wz
		}
	case 4:
		i := 0
		for ; i+2 <= n; i += 2 {
			b := data[i>>1]
			dst[i] += float32(ws*float32(b&0x0f)) + wz
			dst[i+1] += float32(ws*float32(b>>4)) + wz
		}
		if i < n {
			dst[i] += float32(ws*float32(data[i>>1]&0x0f)) + wz
		}
	case 2:
		i := 0
		for ; i+4 <= n; i += 4 {
			b := data[i>>2]
			dst[i] += float32(ws*float32(b&3)) + wz
			dst[i+1] += float32(ws*float32((b>>2)&3)) + wz
			dst[i+2] += float32(ws*float32((b>>4)&3)) + wz
			dst[i+3] += float32(ws*float32(b>>6)) + wz
		}
		for ; i < n; i++ {
			dst[i] += float32(ws*float32((data[i>>2]>>uint((i&3)*2))&3)) + wz
		}
	case 1:
		i := 0
		for ; i+8 <= n; i += 8 {
			b := data[i>>3]
			dst[i] += float32(ws*float32(b&1)) + wz
			dst[i+1] += float32(ws*float32((b>>1)&1)) + wz
			dst[i+2] += float32(ws*float32((b>>2)&1)) + wz
			dst[i+3] += float32(ws*float32((b>>3)&1)) + wz
			dst[i+4] += float32(ws*float32((b>>4)&1)) + wz
			dst[i+5] += float32(ws*float32((b>>5)&1)) + wz
			dst[i+6] += float32(ws*float32((b>>6)&1)) + wz
			dst[i+7] += float32(ws*float32(b>>7)) + wz
		}
		for ; i < n; i++ {
			dst[i] += float32(ws*float32((data[i>>3]>>uint(i&7))&1)) + wz
		}
	default:
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
}

// interleaves reports whether the four-slot kernels dotPacked4 and
// axpyPacked4 cover codes of this width at this dimension: 8-, 4- and 2-bit
// codes with no partially filled last byte. Every other shape takes the
// per-slot loop.
func interleaves(bits, dim int) bool {
	switch bits {
	case 8, 4, 2:
		return dim%(8/bits) == 0
	}
	return false
}

// slots4 splits four consecutive slots of stride bytes each, all sliced to
// len(d0) so one index bound covers the four.
func slots4(data []byte, stride int) (d0, d1, d2, d3 []byte) {
	d0 = data[:stride]
	return d0, data[stride:][:len(d0)], data[2*stride:][:len(d0)], data[3*stride:][:len(d0)]
}

// dotPacked4Go is dotPacked over four slots stored at stride: one
// accumulator per slot, each summed in exactly dotPacked's order, so every
// result is bit-identical to a dotPacked call. It is dotPacked4's Go body,
// the reference its SSE2 body must equal. Only shapes interleaves accepts
// reach it.
func dotPacked4Go(q []float32, data []byte, stride, bits int) [4]float32 {
	d0, d1, d2, d3 := slots4(data, stride)
	var s0, s1, s2, s3 float32
	switch bits {
	case 8:
		d0, d1, d2, d3 = d0[:len(q)], d1[:len(q)], d2[:len(q)], d3[:len(q)]
		for i, qv := range q {
			s0 += float32(qv * float32(d0[i]))
			s1 += float32(qv * float32(d1[i]))
			s2 += float32(qv * float32(d2[i]))
			s3 += float32(qv * float32(d3[i]))
		}
	case 4:
		q = q[:2*stride]
		for k := range d0 {
			q0, q1 := q[2*k], q[2*k+1]
			b0, b1, b2, b3 := d0[k], d1[k], d2[k], d3[k]
			s0 += float32(q0*float32(b0&0x0f)) + float32(q1*float32(b0>>4))
			s1 += float32(q0*float32(b1&0x0f)) + float32(q1*float32(b1>>4))
			s2 += float32(q0*float32(b2&0x0f)) + float32(q1*float32(b2>>4))
			s3 += float32(q0*float32(b3&0x0f)) + float32(q1*float32(b3>>4))
		}
	case 2:
		q = q[:4*stride]
		for k := range d0 {
			q0, q1, q2, q3 := q[4*k], q[4*k+1], q[4*k+2], q[4*k+3]
			b0, b1, b2, b3 := d0[k], d1[k], d2[k], d3[k]
			s0 += float32(q0*float32(b0&3)) + float32(q1*float32((b0>>2)&3)) + float32(q2*float32((b0>>4)&3)) + float32(q3*float32(b0>>6))
			s1 += float32(q0*float32(b1&3)) + float32(q1*float32((b1>>2)&3)) + float32(q2*float32((b1>>4)&3)) + float32(q3*float32(b1>>6))
			s2 += float32(q0*float32(b2&3)) + float32(q1*float32((b2>>2)&3)) + float32(q2*float32((b2>>4)&3)) + float32(q3*float32(b2>>6))
			s3 += float32(q0*float32(b3&3)) + float32(q1*float32((b3>>2)&3)) + float32(q2*float32((b3>>4)&3)) + float32(q3*float32(b3>>6))
		}
	default:
		panic(fmt.Sprintf("quant: no four-slot dot at %d bits", bits))
	}
	return [4]float32{s0, s1, s2, s3}
}

// axpyPacked4Go is axpyPacked over four slots stored at stride, with slot
// k's folded weights in ws[k] and wz[k]. Each dst element is loaded and
// stored once and receives the four slots' terms in slot order, so dst
// ends bit-identical to four axpyPacked calls. It is axpyPacked4's Go
// body, the reference its SSE2 body must equal. Only shapes interleaves
// accepts reach it.
func axpyPacked4Go(ws, wz [4]float32, data []byte, stride, bits int, dst []float32) {
	d0, d1, d2, d3 := slots4(data, stride)
	ws0, ws1, ws2, ws3 := ws[0], ws[1], ws[2], ws[3]
	wz0, wz1, wz2, wz3 := wz[0], wz[1], wz[2], wz[3]
	switch bits {
	case 8:
		dst = dst[:stride]
		d0, d1, d2, d3 = d0[:len(dst)], d1[:len(dst)], d2[:len(dst)], d3[:len(dst)]
		for i, x := range dst {
			x += float32(ws0*float32(d0[i])) + wz0
			x += float32(ws1*float32(d1[i])) + wz1
			x += float32(ws2*float32(d2[i])) + wz2
			x += float32(ws3*float32(d3[i])) + wz3
			dst[i] = x
		}
	case 4:
		dst = dst[:2*stride]
		for k := range d0 {
			b0, b1, b2, b3 := d0[k], d1[k], d2[k], d3[k]
			x, y := dst[2*k], dst[2*k+1]
			x += float32(ws0*float32(b0&0x0f)) + wz0
			x += float32(ws1*float32(b1&0x0f)) + wz1
			x += float32(ws2*float32(b2&0x0f)) + wz2
			x += float32(ws3*float32(b3&0x0f)) + wz3
			y += float32(ws0*float32(b0>>4)) + wz0
			y += float32(ws1*float32(b1>>4)) + wz1
			y += float32(ws2*float32(b2>>4)) + wz2
			y += float32(ws3*float32(b3>>4)) + wz3
			dst[2*k], dst[2*k+1] = x, y
		}
	case 2:
		dst = dst[:4*stride]
		for k := range d0 {
			b0, b1, b2, b3 := d0[k], d1[k], d2[k], d3[k]
			// element i of the byte is code (b>>2i)&3: consume two bits
			// of each slot's byte per element
			e := dst[4*k : 4*k+4 : 4*k+4]
			for i, x := range e {
				x += float32(ws0*float32(b0&3)) + wz0
				x += float32(ws1*float32(b1&3)) + wz1
				x += float32(ws2*float32(b2&3)) + wz2
				x += float32(ws3*float32(b3&3)) + wz3
				e[i] = x
				b0, b1, b2, b3 = b0>>2, b1>>2, b2>>2, b3>>2
			}
		}
	default:
		panic(fmt.Sprintf("quant: no four-slot axpy at %d bits", bits))
	}
}

// unpackInto decodes n packed b-bit codes as float32 code values (no
// scale/zero applied) into dst.
func unpackInto(data []byte, bits, n int, dst []float32) {
	switch bits {
	case 8:
		for i := 0; i < n; i++ {
			dst[i] = float32(data[i])
		}
	case 4:
		i := 0
		for ; i+2 <= n; i += 2 {
			b := data[i>>1]
			dst[i] = float32(b & 0x0f)
			dst[i+1] = float32(b >> 4)
		}
		if i < n {
			dst[i] = float32(data[i>>1] & 0x0f)
		}
	case 2:
		i := 0
		for ; i+4 <= n; i += 4 {
			b := data[i>>2]
			dst[i] = float32(b & 3)
			dst[i+1] = float32((b >> 2) & 3)
			dst[i+2] = float32((b >> 4) & 3)
			dst[i+3] = float32(b >> 6)
		}
		for ; i < n; i++ {
			dst[i] = float32((data[i>>2] >> uint((i&3)*2)) & 3)
		}
	case 1:
		i := 0
		for ; i+8 <= n; i += 8 {
			b := data[i>>3]
			dst[i] = float32(b & 1)
			dst[i+1] = float32((b >> 1) & 1)
			dst[i+2] = float32((b >> 2) & 1)
			dst[i+3] = float32((b >> 3) & 1)
			dst[i+4] = float32((b >> 4) & 1)
			dst[i+5] = float32((b >> 5) & 1)
			dst[i+6] = float32((b >> 6) & 1)
			dst[i+7] = float32(b >> 7)
		}
		for ; i < n; i++ {
			dst[i] = float32((data[i>>3] >> uint(i&7)) & 1)
		}
	default:
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
}

// DequantDotSlots computes out[s] = dot(q, dequantize(slot s)) for nSlots
// consecutive packed vectors — the page-granular fused key kernel. data
// holds the slots at stride PackedLen(len(q), bits); meta holds one
// (scale, zero) pair per slot (ignored for the FP16 tier). The Σq term of
// the affine expansion dot(q, s·Q+z) = s·dot(q,Q) + z·Σq is computed once
// for the whole page. Where interleaves allows, slots go four per pass
// through dotPacked4; every output bit equals the per-slot loop's.
func DequantDotSlots(q []float32, data []byte, bits, nSlots int, meta []float32, out []float32) {
	if len(out) < nSlots {
		panic("quant: DequantDotSlots output too small")
	}
	dim := len(q)
	if bits == BitsF16 {
		stride := 2 * dim
		for s := 0; s < nSlots; s++ {
			out[s] = dotF16(q, data[s*stride:(s+1)*stride])
		}
		return
	}
	if len(meta) < 2*nSlots {
		panic("quant: DequantDotSlots metadata too small")
	}
	stride := PackedLen(dim, bits)
	sq := sum32(q)
	s := 0
	if interleaves(bits, dim) {
		for ; s+4 <= nSlots; s += 4 {
			for k, d := range dotPacked4(q, data[s*stride:(s+4)*stride], stride, bits) {
				out[s+k] = float32(meta[2*(s+k)]*d) + float32(meta[2*(s+k)+1]*sq)
			}
		}
	}
	for ; s < nSlots; s++ {
		d := data[s*stride : (s+1)*stride]
		out[s] = float32(meta[2*s]*dotPacked(q, d, bits)) + float32(meta[2*s+1]*sq)
	}
}

// DequantAxpySlots accumulates dst += Σ_s w[s]·dequantize(slot s) over
// len(w) consecutive packed vectors of n elements — the page-granular fused
// value kernel. meta holds one (scale, zero) pair per slot (ignored for the
// FP16 tier). Where interleaves allows, slots go four per pass through
// axpyPacked4; dst ends bit-identical to the per-slot loop's.
func DequantAxpySlots(w []float32, data []byte, bits, n int, meta []float32, dst []float32) {
	if len(dst) < n {
		panic("quant: DequantAxpySlots destination too small")
	}
	if bits == BitsF16 {
		stride := 2 * n
		for s, ws := range w {
			d := data[s*stride : (s+1)*stride]
			for i := 0; i < n; i++ {
				h := uint16(d[2*i]) | uint16(d[2*i+1])<<8
				dst[i] += float32(ws * F16ToF32(h))
			}
		}
		return
	}
	if len(meta) < 2*len(w) {
		panic("quant: DequantAxpySlots metadata too small")
	}
	stride := PackedLen(n, bits)
	s := 0
	if interleaves(bits, n) {
		for ; s+4 <= len(w); s += 4 {
			var ws, wz [4]float32
			for k := range ws {
				ws[k], wz[k] = w[s+k]*meta[2*(s+k)], w[s+k]*meta[2*(s+k)+1]
			}
			axpyPacked4(ws, wz, data[s*stride:(s+4)*stride], stride, bits, dst)
		}
	}
	for ; s < len(w); s++ {
		axpyPacked(w[s]*meta[2*s], w[s]*meta[2*s+1], data[s*stride:(s+1)*stride], bits, n, dst)
	}
}
