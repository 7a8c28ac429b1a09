// Package quant implements the KV-cache quantization substrate: asymmetric
// per-vector integer quantization at 1/2/4/8 bits with dense bit packing, an
// IEEE binary16 codec for the FP16 tier, precision configurations (K8V4,
// K4V2, ...), and fused dequantize-compute kernels used by the attention
// path.
//
// The quantization scheme follows the paper (§2.2): for a vector X compute a
// scale s and zero point z from Xmin/Xmax, store Q = round((X-z)/s) in b
// bits, and reconstruct X̂ = s·Q + z. Scale and zero point are kept in
// higher precision, one pair per vector.
package quant

import "fmt"

// Bits values supported for integer quantization. BitsF16 selects binary16
// storage (no integer quantization).
const (
	BitsF16 = 16
)

// ValidBits reports whether b is a supported storage width.
func ValidBits(b int) bool {
	switch b {
	case 1, 2, 4, 8, 16:
		return true
	}
	return false
}

// PackedLen returns the number of bytes needed to store n values at the
// given bit width (including the FP16 tier).
func PackedLen(n, bits int) int {
	if !ValidBits(bits) {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	if bits == BitsF16 {
		return 2 * n
	}
	return (n*bits + 7) / 8
}

// levels returns the number of representable steps for a bit width.
func levels(bits int) int { return (1 << bits) - 1 }

// QuantizeInto quantizes src at the given bit width into dst (packed) and
// returns the (scale, zero) metadata. dst must have at least PackedLen(len(src), bits)
// bytes. For bits==16 it stores binary16 and returns (1, 0).
func QuantizeInto(src []float32, bits int, dst []byte) (scale, zero float32) {
	if !ValidBits(bits) {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	if len(dst) < PackedLen(len(src), bits) {
		panic("quant: QuantizeInto destination too small")
	}
	if bits == BitsF16 {
		PackF16(src, dst)
		return 1, 0
	}
	if len(src) == 0 {
		return 1, 0
	}
	minV, maxV := minMax(src)
	zero = minV
	span := maxV - minV
	l := levels(bits)
	if span <= 0 {
		// constant vector: any scale works; use 1 so Q=0 reconstructs zero
		// exactly.
		scale = 1
	} else {
		scale = span / float32(l)
	}
	inv := 1 / scale
	n := len(src)
	i := codesKernel(src, zero, inv, l, bits, dst)
	switch bits {
	case 8:
		for ; i < n; i++ {
			dst[i] = code(src[i], zero, inv, l)
		}
	case 4:
		for ; i+2 <= n; i += 2 {
			dst[i>>1] = code(src[i], zero, inv, l) | code(src[i+1], zero, inv, l)<<4
		}
		if i < n {
			dst[i>>1] = code(src[i], zero, inv, l)
		}
	case 2:
		for ; i+4 <= n; i += 4 {
			dst[i>>2] = code(src[i], zero, inv, l) | code(src[i+1], zero, inv, l)<<2 |
				code(src[i+2], zero, inv, l)<<4 | code(src[i+3], zero, inv, l)<<6
		}
		if i < n {
			var b byte
			for k := 0; i+k < n; k++ {
				b |= code(src[i+k], zero, inv, l) << (2 * k)
			}
			dst[i>>2] = b
		}
	default:
		// zero the packed region we will OR into
		clear(dst[:PackedLen(n, bits)])
		perByte := 8 / bits
		for i, v := range src {
			dst[i/perByte] |= code(v, zero, inv, l) << uint((i%perByte)*bits)
		}
	}
	return scale, zero
}

// minMax returns the smallest and largest of src (len(src) > 0) as the
// scan `if v < minV { minV = v }`, `if v > maxV { maxV = v }` from src[0]
// finds them: a NaN first element stays both, later NaNs are skipped, and
// among equal zeros the first one's sign wins. minMaxKernel folds a prefix
// in lanes, which finds the same values except where a zero's sign could
// depend on the order, so a zero result is scanned again in order.
func minMax(src []float32) (minV, maxV float32) {
	k, minV, maxV := minMaxKernel(src[1:], src[0])
	minV, maxV = scanMinMax(src[1+k:], minV, maxV)
	if k > 0 && (minV == 0 || maxV == 0) {
		minV, maxV = scanMinMax(src[1:], src[0], src[0])
	}
	return minV, maxV
}

// scanMinMax continues the scan from minV and maxV over vs in order.
func scanMinMax(vs []float32, minV, maxV float32) (float32, float32) {
	for _, v := range vs {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV
}

// code is one value's b-bit code, round((v-zero)/scale) clamped to
// [0, l], with inv = 1/scale.
func code(v, zero, inv float32, l int) byte {
	q := int(float32((v-zero)*inv) + 0.5)
	if q < 0 {
		q = 0
	}
	if q > l {
		q = l
	}
	return byte(q)
}

// DequantizeInto reconstructs n values from packed data into dst.
func DequantizeInto(data []byte, bits, n int, scale, zero float32, dst []float32) {
	if !ValidBits(bits) {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	if len(dst) < n {
		panic("quant: DequantizeInto destination too small")
	}
	if bits == BitsF16 {
		UnpackF16(data, dst[:n])
		return
	}
	unpackInto(data, bits, n, dst)
	for i := 0; i < n; i++ {
		dst[i] = float32(scale*dst[i]) + zero
	}
}

// DequantDot computes dot(q, dequantize(data)) without materializing the
// dequantized vector — the Go analogue of the paper's fused
// dequantization+dot attention kernel for key processing. The inner loop is
// byte-unrolled per bit width (see kernels.go); the affine expansion
// dot(q, s*Q+z) = s*dot(q,Q) + z*sum(q) avoids touching zero per element.
func DequantDot(q []float32, data []byte, bits int, scale, zero float32) float32 {
	if bits == BitsF16 {
		return dotF16(q, data)
	}
	dot, sum := dotSumPacked(q, data, bits)
	return float32(scale*dot) + float32(zero*sum)
}

// DequantAxpy computes dst += w * dequantize(data) for an n-element packed
// vector — the fused kernel for value processing (weighted sum of values).
func DequantAxpy(w float32, data []byte, bits, n int, scale, zero float32, dst []float32) {
	if len(dst) < n {
		panic("quant: DequantAxpy destination too small")
	}
	if bits == BitsF16 {
		for i := 0; i < n; i++ {
			h := uint16(data[2*i]) | uint16(data[2*i+1])<<8
			dst[i] += float32(w * F16ToF32(h))
		}
		return
	}
	axpyPacked(w*scale, w*zero, data, bits, n, dst)
}
