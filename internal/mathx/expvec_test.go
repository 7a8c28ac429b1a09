package mathx

import (
	"math"
	"testing"
)

// vecMatches runs vec over every length 0-9 and 127-129 taken from each
// offset of xs it can, and over xs whole, into a fresh dst and in place,
// and fails on any element whose bits differ from scalar's.
func vecMatches(t *testing.T, name string, vec func(dst, src []float64), scalar func(float64) float64, xs []float64) {
	t.Helper()
	check := func(src []float64) {
		t.Helper()
		dst := make([]float64, len(src))
		vec(dst, src)
		in := append([]float64(nil), src...)
		vec(in, in)
		for i, x := range src {
			want := math.Float64bits(scalar(x))
			if got := math.Float64bits(dst[i]); got != want {
				t.Fatalf("%s(%v) = %#x (element %d of %d), want %#x", name, x, got, i, len(src), want)
			}
			if got := math.Float64bits(in[i]); got != want {
				t.Fatalf("%s(%v) in place = %#x (element %d of %d), want %#x", name, x, got, i, len(src), want)
			}
		}
	}
	check(xs)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129}
	for off := 0; off < len(xs); off += 131 {
		for _, n := range lengths {
			if off+n <= len(xs) {
				check(xs[off : off+n])
			}
		}
	}
}

// expEdges lists exp's inputs where its branches meet: ±0, ±Inf, NaN,
// subnormal inputs, both sides of the k = −1022 and k = 1023 edges (the
// last normal and the first subnormal result, the largest finite one),
// the overflow threshold 709.78, the underflow to 0 near −745.13, and
// where the rounding of k changes.
func expEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), // a NaN with a payload
		5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
		1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2, 34.0 / 1024,
		7.09782712893384e+02, 7.0978271289338397e+02, 7.0978271289338402e+02,
		math.MaxFloat64, -math.MaxFloat64, 1e10, -1e10, 3e9, -3e9,
	}
	for _, c := range []float64{
		-1022 * math.Ln2, 1023 * math.Ln2, 7.09782712893384e+02, -745.1332191019411,
		-1022.5 * math.Ln2, 1022.5 * math.Ln2, -1021.5 * math.Ln2, 1023.5 * math.Ln2,
		-1074 * math.Ln2, -1075 * math.Ln2, -708.3964185322641, 709.0895657128241,
	} {
		lo, hi := c, c
		for i := 0; i < 8; i++ {
			xs = append(xs, lo, hi)
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
	}
	return xs
}

func TestExpVecMatchesExp(t *testing.T) {
	rng := NewRNG(1)
	var xs []float64
	// random bit patterns, most of them off exp's main path
	for i := 0; i < 1<<18; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	// uniform over the whole finite range of results, edges included
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, -760+1480*rng.Float64())
	}
	// dense grids over LogNorm's arguments in the serving path (up to six
	// standard deviations at sigma 0.3) and Softmax's (max-shifted logits)
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, -1.8+3.6*float64(i)/(1<<16), -60*float64(i)/(1<<16))
	}
	edges := expEdges()
	xs = append(xs, edges...)
	// every edge value between in-range neighbours, in both lanes of a pair
	for _, e := range edges {
		xs = append(xs, 0.25, e, e, -0.25, 1.5, e)
	}
	vecMatches(t, "ExpVec", ExpVec, math.Exp, xs)
}

func TestLogVecMatchesLog(t *testing.T) {
	rng := NewRNG(2)
	var xs []float64
	// random bit patterns: half of them negative, the rest over every
	// exponent, subnormals, Inf and NaN included
	for i := 0; i < 1<<18; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	// a dense grid over (0, 1], LogNorm's s, and one over (1, 4]
	for i := 1; i <= 1<<16; i++ {
		xs = append(xs, float64(i)/(1<<16), 1+3*float64(i)/(1<<16))
	}
	edges := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, -5e-324,
		math.Float64frombits(0x7ff8000000000123),
		5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
		math.MaxFloat64, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, 0.5,
		math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1),
		math.Sqrt2, math.Nextafter(math.Sqrt2, 0), math.Nextafter(math.Sqrt2, 2),
	}
	xs = append(xs, edges...)
	for _, e := range edges {
		xs = append(xs, 0.25, e, e, 3, 1.5, e)
	}
	vecMatches(t, "LogVec", LogVec, math.Log, xs)
}

func TestVecLengthMismatchPanics(t *testing.T) {
	for name, vec := range map[string]func(dst, src []float64){"ExpVec": ExpVec, "LogVec": LogVec} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on a length mismatch", name)
				}
			}()
			vec(make([]float64, 3), make([]float64, 4))
		}()
	}
}

func TestLogNormIntoMatchesLogNorm(t *testing.T) {
	for _, spare := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130, 512, 1001} {
			for _, p := range []struct{ mu, sigma float64 }{{0, 0.3}, {6.2, 0.9}} {
				seq, into := NewRNG(uint64(n)+7), NewRNG(uint64(n)+7)
				if spare {
					if seq.Norm() != into.Norm() || !seq.hasSpare || !into.hasSpare {
						t.Fatal("a first Norm call left no spare")
					}
				}
				want := make([]float64, n)
				for i := range want {
					want[i] = seq.LogNorm(p.mu, p.sigma)
				}
				got := make([]float64, n)
				into.LogNormInto(got, p.mu, p.sigma)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("spare %v, n %d, %+v: LogNormInto[%d] = %v, LogNorm call %d = %v", spare, n, p, i, got[i], i, want[i])
					}
				}
				if into.hasSpare != seq.hasSpare || into.hasSpare && into.spare != seq.spare {
					t.Fatalf("spare %v, n %d: spare (%v, %v) after LogNormInto, (%v, %v) after LogNorm", spare, n, into.hasSpare, into.spare, seq.hasSpare, seq.spare)
				}
				if a, b := into.Norm(), seq.Norm(); a != b {
					t.Fatalf("spare %v, n %d: next Norm %v after LogNormInto, %v after LogNorm", spare, n, a, b)
				}
				if a, b := into.Uint64(), seq.Uint64(); a != b {
					t.Fatalf("spare %v, n %d: next Uint64 %#x after LogNormInto, %#x after LogNorm", spare, n, a, b)
				}
			}
		}
	}
}

func TestLogNormIntoZeroAllocs(t *testing.T) {
	r, dst := NewRNG(3), make([]float64, 512)
	if n := testing.AllocsPerRun(20, func() { r.LogNormInto(dst, 0, 0.3) }); n != 0 {
		t.Fatalf("LogNormInto allocates %v times per call, want 0", n)
	}
}

// softmaxScalar is Softmax's loop before it batched its exps: one
// math.Exp per element, summed in index order.
func softmaxScalar(logits, dst []float32) []float32 {
	if len(logits) == 0 {
		return dst
	}
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxL))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

func TestSoftmaxMatchesScalar(t *testing.T) {
	rng := NewRNG(4)
	for _, n := range []int{1, 2, 3, 63, 64, 65, 128, 129, 2304} {
		// spreads from attention-like logits to ones where most exps
		// underflow to 0 in float32, and past −745 in float64
		for _, spread := range []float64{1, 12, 120, 2000} {
			logits := make([]float32, n)
			for i := range logits {
				logits[i] = float32(spread * (2*rng.Float64() - 1))
			}
			want := softmaxScalar(logits, make([]float32, n))
			got := Softmax(logits, make([]float32, n))
			in := Softmax(logits, append([]float32(nil), logits...)) // dst aliasing logits
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(in[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n %d, spread %v: Softmax[%d] = %v (in place %v), the scalar loop gives %v", n, spread, i, got[i], in[i], want[i])
				}
			}
		}
	}
}

func TestSoftmaxZeroAllocs(t *testing.T) {
	logits, dst := make([]float32, 2304), make([]float32, 2304)
	for i := range logits {
		logits[i] = float32(i%97) / 8
	}
	if n := testing.AllocsPerRun(20, func() { Softmax(logits, dst) }); n != 0 {
		t.Fatalf("Softmax allocates %v times per call, want 0", n)
	}
}

// BenchmarkExpVec compares ExpVec with a math.Exp loop over 512 of
// LogNorm's arguments, one pageStore.register's worth.
func BenchmarkExpVec(b *testing.B) {
	src, dst := make([]float64, 512), make([]float64, 512)
	r := NewRNG(5)
	for i := range src {
		src[i] = 0.3 * r.Norm()
	}
	b.Run("vec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpVec(dst, src)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Exp(x)
			}
		}
	})
}

// BenchmarkLogNormInto compares LogNormInto with a LogNorm loop over
// 512 draws, one pageStore.register's worth.
func BenchmarkLogNormInto(b *testing.B) {
	dst := make([]float64, 512)
	b.Run("into", func(b *testing.B) {
		r := NewRNG(6)
		for i := 0; i < b.N; i++ {
			r.LogNormInto(dst, 0, 0.3)
		}
	})
	b.Run("loop", func(b *testing.B) {
		r := NewRNG(6)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = r.LogNorm(0, 0.3)
			}
		}
	})
}
