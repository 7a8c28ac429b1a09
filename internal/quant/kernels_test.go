package quant

import (
	"math"
	"testing"

	"diffkv/internal/mathx"
)

// refDequantDot is the straightforward per-element kernel the specialized
// loops must agree with.
func refDequantDot(q []float32, data []byte, bits int, scale, zero float32) float32 {
	if bits == BitsF16 {
		var s float32
		for i := range q {
			h := uint16(data[2*i]) | uint16(data[2*i+1])<<8
			s += q[i] * F16ToF32(h)
		}
		return s
	}
	perByte := 8 / bits
	mask := byte(levels(bits))
	var dotQ, sumQ float32
	for i := range q {
		b := data[i/perByte]
		qv := (b >> uint((i%perByte)*bits)) & mask
		dotQ += q[i] * float32(qv)
		sumQ += q[i]
	}
	return scale*dotQ + zero*sumQ
}

func refDequantAxpy(w float32, data []byte, bits, n int, scale, zero float32, dst []float32) {
	if bits == BitsF16 {
		for i := 0; i < n; i++ {
			h := uint16(data[2*i]) | uint16(data[2*i+1])<<8
			dst[i] += w * F16ToF32(h)
		}
		return
	}
	perByte := 8 / bits
	mask := byte(levels(bits))
	for i := 0; i < n; i++ {
		b := data[i/perByte]
		qv := (b >> uint((i%perByte)*bits)) & mask
		dst[i] += w*scale*float32(qv) + w*zero
	}
}

var kernelDims = []int{1, 3, 7, 8, 31, 64, 128}

func TestSpecializedDotMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(11)
	for _, bits := range []int{1, 2, 4, 8, BitsF16} {
		for _, dim := range kernelDims {
			src := make([]float32, dim)
			q := make([]float32, dim)
			rng.NormVec(src, 1.3)
			rng.NormVec(q, 1)
			data := make([]byte, PackedLen(dim, bits))
			scale, zero := QuantizeInto(src, bits, data)
			got := DequantDot(q, data, bits, scale, zero)
			want := refDequantDot(q, data, bits, scale, zero)
			if math.Abs(float64(got-want)) > 1e-3*(1+math.Abs(float64(want))) {
				t.Fatalf("bits=%d dim=%d: dot %v != ref %v", bits, dim, got, want)
			}
		}
	}
}

func TestSpecializedAxpyMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(12)
	for _, bits := range []int{1, 2, 4, 8, BitsF16} {
		for _, dim := range kernelDims {
			src := make([]float32, dim)
			rng.NormVec(src, 0.8)
			data := make([]byte, PackedLen(dim, bits))
			scale, zero := QuantizeInto(src, bits, data)
			got := make([]float32, dim)
			want := make([]float32, dim)
			DequantAxpy(0.37, data, bits, dim, scale, zero, got)
			refDequantAxpy(0.37, data, bits, dim, scale, zero, want)
			for i := range got {
				if math.Abs(float64(got[i]-want[i])) > 1e-4 {
					t.Fatalf("bits=%d dim=%d i=%d: %v != %v", bits, dim, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSpecializedDequantizeMatchesRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(13)
	for _, bits := range []int{1, 2, 4, 8, BitsF16} {
		for _, dim := range kernelDims {
			src := make([]float32, dim)
			rng.NormVec(src, 1)
			data := make([]byte, PackedLen(dim, bits))
			scale, zero := QuantizeInto(src, bits, data)
			dst := make([]float32, dim)
			DequantizeInto(data, bits, dim, scale, zero, dst)
			// reconstruction error bounded by half a quantization step
			if bits != BitsF16 {
				step := float64(scale)
				for i := range dst {
					if d := math.Abs(float64(dst[i] - src[i])); d > step/2+1e-5 {
						t.Fatalf("bits=%d dim=%d i=%d: err %v > step/2 %v", bits, dim, i, d, step/2)
					}
				}
			}
		}
	}
}

// slotPage packs nSlots quantized vectors the way a unified page stores
// them: contiguous codes at fixed stride plus a (scale, zero) pair per slot.
func slotPage(rng *mathx.RNG, bits, dim, nSlots int) (data []byte, meta []float32, vecs [][]float32) {
	stride := PackedLen(dim, bits)
	data = make([]byte, nSlots*stride)
	meta = make([]float32, 2*nSlots)
	for s := 0; s < nSlots; s++ {
		v := make([]float32, dim)
		rng.NormVec(v, 1)
		vecs = append(vecs, v)
		sc, z := QuantizeInto(v, bits, data[s*stride:(s+1)*stride])
		meta[2*s], meta[2*s+1] = sc, z
	}
	return data, meta, vecs
}

func TestDequantDotSlotsMatchesPerToken(t *testing.T) {
	rng := mathx.NewRNG(14)
	for _, bits := range []int{1, 2, 4, 8, BitsF16} {
		dim, nSlots := 64, 9
		data, meta, _ := slotPage(rng, bits, dim, nSlots)
		q := make([]float32, dim)
		rng.NormVec(q, 1)
		out := make([]float32, nSlots)
		DequantDotSlots(q, data, bits, nSlots, meta, out)
		stride := PackedLen(dim, bits)
		for s := 0; s < nSlots; s++ {
			want := DequantDot(q, data[s*stride:(s+1)*stride], bits, meta[2*s], meta[2*s+1])
			if math.Abs(float64(out[s]-want)) > 1e-4*(1+math.Abs(float64(want))) {
				t.Fatalf("bits=%d slot=%d: %v != %v", bits, s, out[s], want)
			}
		}
	}
}

func TestDequantAxpySlotsMatchesPerToken(t *testing.T) {
	rng := mathx.NewRNG(15)
	for _, bits := range []int{1, 2, 4, 8, BitsF16} {
		dim, nSlots := 48, 7
		data, meta, _ := slotPage(rng, bits, dim, nSlots)
		w := make([]float32, nSlots)
		for s := range w {
			w[s] = float32(rng.Float64())
		}
		got := make([]float32, dim)
		DequantAxpySlots(w, data, bits, dim, meta, got)
		want := make([]float32, dim)
		stride := PackedLen(dim, bits)
		for s := 0; s < nSlots; s++ {
			DequantAxpy(w[s], data[s*stride:(s+1)*stride], bits, dim, meta[2*s], meta[2*s+1], want)
		}
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("bits=%d i=%d: %v != %v", bits, i, got[i], want[i])
			}
		}
	}
}

// refDotSlots and refAxpySlots are the per-slot loops the four-slot passes
// of DequantDotSlots and DequantAxpySlots replace.
func refDotSlots(q []float32, data []byte, bits, nSlots int, meta, out []float32) {
	stride := PackedLen(len(q), bits)
	for s := 0; s < nSlots; s++ {
		d := data[s*stride : (s+1)*stride]
		if bits == BitsF16 {
			out[s] = dotF16(q, d)
			continue
		}
		out[s] = meta[2*s]*dotPacked(q, d, bits) + meta[2*s+1]*sum32(q)
	}
}

func refAxpySlots(w []float32, data []byte, bits, n int, meta, dst []float32) {
	stride := PackedLen(n, bits)
	for s, ws := range w {
		d := data[s*stride : (s+1)*stride]
		if bits == BitsF16 {
			for i := 0; i < n; i++ {
				dst[i] += ws * F16ToF32(uint16(d[2*i])|uint16(d[2*i+1])<<8)
			}
			continue
		}
		axpyPacked(ws*meta[2*s], ws*meta[2*s+1], d, bits, n, dst)
	}
}

// TestSlotKernelsBitIdentical: at every storage width, 0-9 slots (every
// remainder mod 4) and dimensions that do and do not fill their last byte,
// the slot kernels' output bits equal the per-slot loops'.
func TestSlotKernelsBitIdentical(t *testing.T) {
	rng := mathx.NewRNG(20)
	widths := 0
	for bits := 0; bits <= 32; bits++ {
		if !ValidBits(bits) {
			continue
		}
		widths++
		for _, dim := range []int{1, 2, 3, 7, 64, 127, 128} {
			for nSlots := 0; nSlots <= 9; nSlots++ {
				data, meta, _ := slotPage(rng, bits, dim, nSlots)
				q := make([]float32, dim)
				rng.NormVec(q, 1)
				got, want := make([]float32, nSlots), make([]float32, nSlots)
				DequantDotSlots(q, data, bits, nSlots, meta, got)
				refDotSlots(q, data, bits, nSlots, meta, want)
				for s := range want {
					if math.Float32bits(got[s]) != math.Float32bits(want[s]) {
						t.Fatalf("dot bits=%d dim=%d slots=%d: slot %d = %v, per-slot %v", bits, dim, nSlots, s, got[s], want[s])
					}
				}

				w := make([]float32, nSlots)
				rng.NormVec(w, 0.3)
				gotV, wantV := make([]float32, dim), make([]float32, dim)
				rng.NormVec(gotV, 1)
				copy(wantV, gotV)
				DequantAxpySlots(w, data, bits, dim, meta, gotV)
				refAxpySlots(w, data, bits, dim, meta, wantV)
				for i := range wantV {
					if math.Float32bits(gotV[i]) != math.Float32bits(wantV[i]) {
						t.Fatalf("axpy bits=%d dim=%d slots=%d: dst[%d] = %v, per-slot %v", bits, dim, nSlots, i, gotV[i], wantV[i])
					}
				}
			}
		}
	}
	if widths != 5 {
		t.Fatalf("checked %d widths, want 5 (1, 2, 4, 8 and F16)", widths)
	}
}

func TestDequantDotZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(16)
	dim := 128
	src := make([]float32, dim)
	q := make([]float32, dim)
	rng.NormVec(src, 1)
	rng.NormVec(q, 1)
	data := make([]byte, PackedLen(dim, 4))
	scale, zero := QuantizeInto(src, 4, data)
	var sink float32
	allocs := testing.AllocsPerRun(100, func() {
		sink += DequantDot(q, data, 4, scale, zero)
	})
	if allocs != 0 {
		t.Fatalf("DequantDot allocated %v per run", allocs)
	}
	_ = sink
}

func TestDequantAxpyZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(17)
	dim := 128
	src := make([]float32, dim)
	rng.NormVec(src, 1)
	data := make([]byte, PackedLen(dim, 2))
	scale, zero := QuantizeInto(src, 2, data)
	dst := make([]float32, dim)
	allocs := testing.AllocsPerRun(100, func() {
		DequantAxpy(0.5, data, 2, dim, scale, zero, dst)
	})
	if allocs != 0 {
		t.Fatalf("DequantAxpy allocated %v per run", allocs)
	}
}

func TestSlotKernelsZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(18)
	dim, nSlots := 128, 16
	data, meta, _ := slotPage(rng, 4, dim, nSlots)
	q := make([]float32, dim)
	rng.NormVec(q, 1)
	out := make([]float32, nSlots)
	dst := make([]float32, dim)
	allocs := testing.AllocsPerRun(100, func() {
		DequantDotSlots(q, data, 4, nSlots, meta, out)
		DequantAxpySlots(out, data, 4, dim, meta, dst)
	})
	if allocs != 0 {
		t.Fatalf("slot kernels allocated %v per run", allocs)
	}
}

func TestQuantizeIntoZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(19)
	dim := 128
	src := make([]float32, dim)
	rng.NormVec(src, 1)
	widths := 0
	for bits := 0; bits <= 32; bits++ {
		if !ValidBits(bits) {
			continue
		}
		widths++
		dst := make([]byte, PackedLen(dim, bits))
		allocs := testing.AllocsPerRun(100, func() {
			QuantizeInto(src, bits, dst)
		})
		if allocs != 0 {
			t.Errorf("QuantizeInto at %d bits allocated %v per run", bits, allocs)
		}
	}
	if widths != 5 {
		t.Fatalf("checked %d widths, want 5 (1, 2, 4, 8 and F16)", widths)
	}
}

// specialFloats mixes ordinary draws with the values whose rounding or
// propagation a vector body could get wrong: signed zeros, infinities,
// subnormals, magnitudes whose products overflow or underflow, and NaN.
func specialFloats(rng *mathx.RNG, n int) []float32 {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400000),
		math.MaxFloat32, -math.MaxFloat32, 3e38, -2e19, 1e-20, -1e-25,
		float32(math.NaN()),
	}
	v := make([]float32, n)
	rng.NormVec(v, 3)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// sameBits reports whether a and b are the same float32, any NaN matching
// any NaN (a vector body may carry a different payload).
func sameBits(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestPageKernelsMatchGo holds the four-slot kernels (SSE2 on amd64
// outside -race) to their Go bodies bit for bit at 8, 4 and 2 bits, on
// strides that fill the four-byte passes and strides that fall back to Go,
// on every byte value, and with queries, weights and destinations that
// hold NaN, infinities and subnormals. A NaN must be a NaN on both sides.
func TestPageKernelsMatchGo(t *testing.T) {
	rng := mathx.NewRNG(21)
	for _, bits := range []int{8, 4, 2} {
		for _, stride := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64, 128} {
			n := stride * 8 / bits
			for rep := 0; rep < 6; rep++ {
				data := make([]byte, 4*stride)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				q := specialFloats(rng, n)
				if rep == 0 {
					rng.NormVec(q, 1)
				}
				got, want := dotPacked4(q, data, stride, bits), dotPacked4Go(q, data, stride, bits)
				for k := range want {
					if !sameBits(got[k], want[k]) {
						t.Fatalf("dot bits %d stride %d rep %d: slot %d = %v, Go body %v", bits, stride, rep, k, got[k], want[k])
					}
				}

				var ws, wz [4]float32
				copy(ws[:], specialFloats(rng, 4))
				copy(wz[:], specialFloats(rng, 4))
				if rep == 0 {
					ws, wz = [4]float32{0.5, -1.25, 3, 1e-3}, [4]float32{-0.75, 2, 0.125, -4}
				}
				gotV := specialFloats(rng, n)
				wantV := append([]float32(nil), gotV...)
				axpyPacked4(ws, wz, data, stride, bits, gotV)
				axpyPacked4Go(ws, wz, data, stride, bits, wantV)
				for i := range wantV {
					if !sameBits(gotV[i], wantV[i]) {
						t.Fatalf("axpy bits %d stride %d rep %d: dst[%d] = %v, Go body %v", bits, stride, rep, i, gotV[i], wantV[i])
					}
				}
			}
		}
	}
}

// TestSlotKernelsSpecialWeights: with 0-9 slots and weights, metadata and
// queries that hold NaN, infinities and subnormals, the slot kernels still
// write the per-slot loops' bits (any NaN matching any NaN).
func TestSlotKernelsSpecialWeights(t *testing.T) {
	rng := mathx.NewRNG(22)
	for _, bits := range []int{8, 4, 2} {
		for _, dim := range []int{8, 64, 128} {
			for nSlots := 0; nSlots <= 9; nSlots++ {
				data, _, _ := slotPage(rng, bits, dim, nSlots)
				meta := specialFloats(rng, 2*nSlots)
				q := specialFloats(rng, dim)
				got, want := make([]float32, nSlots), make([]float32, nSlots)
				DequantDotSlots(q, data, bits, nSlots, meta, got)
				refDotSlots(q, data, bits, nSlots, meta, want)
				for s := range want {
					if !sameBits(got[s], want[s]) {
						t.Fatalf("dot bits=%d dim=%d slots=%d: slot %d = %v, per-slot %v", bits, dim, nSlots, s, got[s], want[s])
					}
				}
				w := specialFloats(rng, nSlots)
				gotV := specialFloats(rng, dim)
				wantV := append([]float32(nil), gotV...)
				DequantAxpySlots(w, data, bits, dim, meta, gotV)
				refAxpySlots(w, data, bits, dim, meta, wantV)
				for i := range wantV {
					if !sameBits(gotV[i], wantV[i]) {
						t.Fatalf("axpy bits=%d dim=%d slots=%d: dst[%d] = %v, per-slot %v", bits, dim, nSlots, i, gotV[i], wantV[i])
					}
				}
			}
		}
	}
}
