package quant

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"diffkv/internal/mathx"
)

func TestPackedLen(t *testing.T) {
	cases := []struct{ n, bits, want int }{
		{128, 8, 128},
		{128, 4, 64},
		{128, 2, 32},
		{128, 1, 16},
		{128, 16, 256},
		{7, 4, 4}, // 28 bits -> 4 bytes
		{9, 2, 3}, // 18 bits -> 3 bytes
		{3, 1, 1}, // 3 bits -> 1 byte
		{0, 8, 0},
	}
	for _, c := range cases {
		if got := PackedLen(c.n, c.bits); got != c.want {
			t.Fatalf("PackedLen(%d,%d) = %d, want %d", c.n, c.bits, got, c.want)
		}
	}
}

func TestPackedLenPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackedLen(10, 3)
}

func roundTripErr(t *testing.T, src []float32, bits int) float64 {
	t.Helper()
	dst := make([]byte, PackedLen(len(src), bits))
	scale, zero := QuantizeInto(src, bits, dst)
	out := make([]float32, len(src))
	DequantizeInto(dst, bits, len(src), scale, zero, out)
	return mathx.RelErr(out, src)
}

func TestRoundTripErrorDecreasesWithBits(t *testing.T) {
	rng := mathx.NewRNG(1)
	src := make([]float32, 128)
	rng.NormVec(src, 1)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{1, 2, 4, 8, 16} {
		e := roundTripErr(t, src, bits)
		if e >= prev {
			t.Fatalf("error at %d bits (%v) not below error at previous width (%v)", bits, e, prev)
		}
		prev = e
	}
}

func TestRoundTripINT8Tight(t *testing.T) {
	rng := mathx.NewRNG(2)
	src := make([]float32, 128)
	rng.NormVec(src, 1)
	if e := roundTripErr(t, src, 8); e > 0.01 {
		t.Fatalf("INT8 round-trip error %v too large", e)
	}
}

func TestRoundTripF16Tiny(t *testing.T) {
	rng := mathx.NewRNG(3)
	src := make([]float32, 64)
	rng.NormVec(src, 10)
	if e := roundTripErr(t, src, 16); e > 1e-3 {
		t.Fatalf("F16 round-trip error %v too large", e)
	}
}

func TestQuantizeConstantVector(t *testing.T) {
	src := []float32{2.5, 2.5, 2.5, 2.5}
	dst := make([]byte, PackedLen(4, 4))
	scale, zero := QuantizeInto(src, 4, dst)
	out := make([]float32, 4)
	DequantizeInto(dst, 4, 4, scale, zero, out)
	for _, v := range out {
		if v != 2.5 {
			t.Fatalf("constant vector not reconstructed exactly: %v", out)
		}
	}
}

func TestQuantizeEmpty(t *testing.T) {
	scale, zero := QuantizeInto(nil, 8, nil)
	if scale != 1 || zero != 0 {
		t.Fatalf("empty quantize = (%v, %v)", scale, zero)
	}
}

func TestQuantizeEndpointsExact(t *testing.T) {
	// min and max of the vector must be representable (asymmetric quant).
	src := []float32{-3, 0.1, 0.2, 5}
	for _, bits := range []int{2, 4, 8} {
		dst := make([]byte, PackedLen(len(src), bits))
		scale, zero := QuantizeInto(src, bits, dst)
		out := make([]float32, len(src))
		DequantizeInto(dst, bits, len(src), scale, zero, out)
		if math.Abs(float64(out[0]+3)) > 1e-4 {
			t.Fatalf("bits=%d min endpoint %v, want -3", bits, out[0])
		}
		if math.Abs(float64(out[3]-5)) > 1e-4 {
			t.Fatalf("bits=%d max endpoint %v, want 5", bits, out[3])
		}
	}
}

func TestDequantDotMatchesMaterialized(t *testing.T) {
	rng := mathx.NewRNG(4)
	for _, bits := range []int{1, 2, 4, 8, 16} {
		k := make([]float32, 96)
		q := make([]float32, 96)
		rng.NormVec(k, 1)
		rng.NormVec(q, 1)
		data := make([]byte, PackedLen(len(k), bits))
		scale, zero := QuantizeInto(k, bits, data)
		fused := DequantDot(q, data, bits, scale, zero)
		deq := make([]float32, len(k))
		DequantizeInto(data, bits, len(k), scale, zero, deq)
		direct := mathx.Dot(q, deq)
		if math.Abs(float64(fused-direct)) > 1e-3*(1+math.Abs(float64(direct))) {
			t.Fatalf("bits=%d fused dot %v != direct %v", bits, fused, direct)
		}
	}
}

func TestDequantAxpyMatchesMaterialized(t *testing.T) {
	rng := mathx.NewRNG(5)
	for _, bits := range []int{1, 2, 4, 8, 16} {
		v := make([]float32, 80)
		rng.NormVec(v, 2)
		data := make([]byte, PackedLen(len(v), bits))
		scale, zero := QuantizeInto(v, bits, data)

		dst1 := make([]float32, len(v))
		DequantAxpy(0.37, data, bits, len(v), scale, zero, dst1)

		deq := make([]float32, len(v))
		DequantizeInto(data, bits, len(v), scale, zero, deq)
		dst2 := make([]float32, len(v))
		mathx.Axpy(0.37, deq, dst2)

		if e := mathx.RelErr(dst1, dst2); e > 1e-5 {
			t.Fatalf("bits=%d fused axpy diverges: %v", bits, e)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	cases := []float32{0, -0, 1, -1, 0.5, 65504, -65504, 1e-8, float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range cases {
		got := F16ToF32(F32ToF16(v))
		if math.IsInf(float64(v), 0) {
			if !math.IsInf(float64(got), int(math.Copysign(1, float64(v)))) {
				t.Fatalf("inf not preserved: %v -> %v", v, got)
			}
			continue
		}
		if v == 0 {
			if got != 0 {
				t.Fatalf("zero not preserved: %v", got)
			}
			continue
		}
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		if v == 1e-8 {
			// subnormal underflow to zero is acceptable
			if got != 0 && rel > 0.5 {
				t.Fatalf("tiny value badly converted: %v -> %v", v, got)
			}
			continue
		}
		if rel > 1e-3 {
			t.Fatalf("F16 round-trip %v -> %v (rel %v)", v, got, rel)
		}
	}
}

func TestF16NaN(t *testing.T) {
	nan := float32(math.NaN())
	got := F16ToF32(F32ToF16(nan))
	if !math.IsNaN(float64(got)) {
		t.Fatalf("NaN not preserved: %v", got)
	}
}

func TestF16Overflow(t *testing.T) {
	got := F16ToF32(F32ToF16(1e10))
	if !math.IsInf(float64(got), 1) {
		t.Fatalf("overflow should produce +inf, got %v", got)
	}
}

func TestPrecisionString(t *testing.T) {
	if K8V4.String() != "K8V4" {
		t.Fatalf("K8V4.String() = %q", K8V4.String())
	}
	if FP16.String() != "FP16" {
		t.Fatalf("FP16.String() = %q", FP16.String())
	}
}

func TestPrecisionTokenBytes(t *testing.T) {
	dim := 128
	// K8V4: 128 + 64 payload + 16 meta + 8 aux = 216
	if got := K8V4.TokenBytes(dim); got != 216 {
		t.Fatalf("K8V4 token bytes = %d, want 216", got)
	}
	// K4V2: 64 + 32 + 16 + 8 = 120
	if got := K4V2.TokenBytes(dim); got != 120 {
		t.Fatalf("K4V2 token bytes = %d, want 120", got)
	}
	// FP16: 256 + 256 + 16 + 8 = 536
	if got := FP16.TokenBytes(dim); got != 536 {
		t.Fatalf("FP16 token bytes = %d, want 536", got)
	}
}

func TestPrecisionValid(t *testing.T) {
	if !K8V4.Valid() || !FP16.Valid() {
		t.Fatal("standard configs should be valid")
	}
	if (Precision{3, 4}).Valid() {
		t.Fatal("3-bit keys should be invalid")
	}
}

// Property: quantization error is bounded by scale/2 per element
// (within float rounding) for every supported bit width.
func TestQuantErrorBoundProperty(t *testing.T) {
	f := func(raw []int16, bitsSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		bitsOpts := []int{1, 2, 4, 8}
		bits := bitsOpts[int(bitsSel)%len(bitsOpts)]
		src := make([]float32, len(raw))
		for i, v := range raw {
			src[i] = float32(v) / 256
		}
		data := make([]byte, PackedLen(len(src), bits))
		scale, zero := QuantizeInto(src, bits, data)
		out := make([]float32, len(src))
		DequantizeInto(data, bits, len(src), scale, zero, out)
		for i := range src {
			if math.Abs(float64(out[i]-src[i])) > float64(scale)/2+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: dequantized values always lie within [zero, zero+scale*levels],
// i.e. within the observed min/max envelope of the input.
func TestDequantRangeProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		src := make([]float32, len(raw))
		for i, v := range raw {
			src[i] = float32(v)
		}
		minV, maxV := slices.Min(src), slices.Max(src)
		data := make([]byte, PackedLen(len(src), 4))
		scale, zero := QuantizeInto(src, 4, data)
		out := make([]float32, len(src))
		DequantizeInto(data, 4, len(src), scale, zero, out)
		tol := 1e-5 * (1 + math.Abs(float64(minV)) + math.Abs(float64(maxV)))
		for _, v := range out {
			if float64(v) < float64(minV)-tol || float64(v) > float64(maxV)+tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: F16 round trip is exact for values that are exactly
// representable (small integers).
func TestF16ExactSmallIntsProperty(t *testing.T) {
	f := func(v int8) bool {
		x := float32(v)
		return F16ToF32(F32ToF16(x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Fatal(err)
	}
}
