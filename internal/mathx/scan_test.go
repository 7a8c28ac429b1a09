package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExclusiveScanBasic(t *testing.T) {
	src := []int32{3, 1, 4, 1, 5}
	dst := make([]int32, len(src))
	total := ExclusiveScan(src, dst)
	want := []int32{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d, want 14", total)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestExclusiveScanEmpty(t *testing.T) {
	if total := ExclusiveScan(nil, nil); total != 0 {
		t.Fatalf("empty scan total = %d", total)
	}
}

func TestExclusiveScanInPlace(t *testing.T) {
	x := []int32{1, 2, 3}
	total := ExclusiveScan(x, x)
	if total != 6 || x[0] != 0 || x[1] != 1 || x[2] != 3 {
		t.Fatalf("in-place scan wrong: %v total=%d", x, total)
	}
}

func TestParallelScanMatchesSequentialSmall(t *testing.T) {
	src := []int32{5, 0, 2, 7}
	seq := make([]int32, 4)
	par := make([]int32, 4)
	st := ExclusiveScan(src, seq)
	pt := ParallelExclusiveScan(src, par)
	if st != pt {
		t.Fatalf("totals differ: %d vs %d", st, pt)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, seq[i], par[i])
		}
	}
}

func TestParallelScanMatchesSequentialLarge(t *testing.T) {
	rng := NewRNG(7)
	n := 100_003 // odd size, forces uneven blocks
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(rng.Intn(9))
	}
	seq := make([]int32, n)
	par := make([]int32, n)
	st := ExclusiveScan(src, seq)
	pt := ParallelExclusiveScan(src, par)
	if st != pt {
		t.Fatalf("totals differ: %d vs %d", st, pt)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, seq[i], par[i])
		}
	}
}

func TestParallelScanInPlaceLarge(t *testing.T) {
	rng := NewRNG(11)
	n := 50_000
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(rng.Intn(5))
	}
	ref := make([]int32, n)
	ExclusiveScan(src, ref)
	total := ParallelExclusiveScan(src, src)
	var want int32
	for _, v := range ref {
		_ = v
	}
	want = ref[n-1] + 0 // recompute below for clarity
	_ = want
	for i := range ref {
		if src[i] != ref[i] {
			t.Fatalf("in-place parallel scan mismatch at %d", i)
		}
	}
	_ = total
}

// Property: scan output is non-decreasing for non-negative inputs, and
// total equals the sum.
func TestScanProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		src := make([]int32, len(raw))
		var sum int32
		for i, v := range raw {
			src[i] = int32(v % 16)
			sum += src[i]
		}
		dst := make([]int32, len(src))
		total := ParallelExclusiveScan(src, dst)
		if total != sum {
			return false
		}
		for i := 1; i < len(dst); i++ {
			if dst[i] < dst[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	c1 := r.SplitAt(0)
	c2 := r.SplitAt(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split streams identical on first draw")
	}
}

// Ahead(k) starts at draw k of the stream without moving it, Advance(n)
// is n Uint64 calls, and a pending Box-Muller spare survives Advance.
func TestRNGAheadMatchesSequential(t *testing.T) {
	const n = 1000
	seq := NewRNG(77)
	draws := make([]uint64, n)
	for k := range draws {
		draws[k] = seq.Uint64()
	}
	r := NewRNG(77)
	for _, k := range []int{0, 1, 2, 255, 256, 511, n - 1} {
		a := r.Ahead(uint64(k))
		if got := a.Uint64(); got != draws[k] {
			t.Fatalf("Ahead(%d) drew %x, draw %d is %x", k, got, k, draws[k])
		}
		if k+1 < n && a.Uint64() != draws[k+1] {
			t.Fatalf("Ahead(%d): second draw is not draw %d", k, k+1)
		}
	}
	if got := r.Uint64(); got != draws[0] {
		t.Fatal("Ahead moved the receiver")
	}
	r.Advance(299)
	if got := r.Uint64(); got != draws[300] {
		t.Fatalf("Advance(299) after one draw: next is %x, draw 300 is %x", got, draws[300])
	}

	// a spare normal survives Advance, and the stream behind it moves
	want, adv := NewRNG(5), NewRNG(5)
	want.Norm()
	adv.Norm()
	for i := 0; i < 37; i++ {
		want.Uint64()
	}
	adv.Advance(37)
	if w, g := want.Norm(), adv.Norm(); w != g {
		t.Fatalf("spare after Advance: %v, after 37 draws: %v", g, w)
	}
	if w, g := want.Norm(), adv.Norm(); w != g {
		t.Fatalf("first fresh normal after Advance: %v, after 37 draws: %v", g, w)
	}
}

// Float64At(k) is the k-th Float64 (from 0) of a copy of the stream and
// Uint64At(k) its k-th Uint64, for every k below 10^4, read in an order
// that is not the stream's, on a fresh stream, on an Ahead copy and after
// Advance, and neither moves the stream it reads.
func TestRNGFloat64AtMatchesSequential(t *testing.T) {
	const n = 10_000
	r := NewRNG(51)
	ahead := r.Ahead(1234)
	adv := NewRNG(51)
	adv.Advance(1234)
	for _, tc := range []struct {
		name string
		r    *RNG
	}{{"fresh", r}, {"Ahead", &ahead}, {"Advance", adv}} {
		before := *tc.r
		cp, cpU := *tc.r, *tc.r
		want := make([]float64, n)
		wantU := make([]uint64, n)
		for k := range want {
			want[k], wantU[k] = cp.Float64(), cpU.Uint64()
		}
		for i := range n {
			k := (i * 7919) % n // 7919 is prime to n: every index once, out of order
			if got := tc.r.Float64At(uint64(k)); got != want[k] {
				t.Fatalf("%s: Float64At(%d) = %v, Float64 #%d of a copy = %v", tc.name, k, got, k, want[k])
			}
			if got := tc.r.Uint64At(uint64(k)); got != wantU[k] {
				t.Fatalf("%s: Uint64At(%d) = %#x, Uint64 #%d of a copy = %#x", tc.name, k, got, k, wantU[k])
			}
		}
		if *tc.r != before {
			t.Fatalf("%s: Float64At or Uint64At moved the stream", tc.name)
		}
	}
	if got, want := ahead.Float64At(0), adv.Float64At(0); got != want {
		t.Fatalf("Ahead(1234) and Advance(1234) read draw 0 as %v and %v", got, want)
	}
	if got, want := ahead.Uint64At(0), adv.Uint64At(0); got != want {
		t.Fatalf("Ahead(1234) and Advance(1234) read draw 0 as %#x and %#x", got, want)
	}
}

// Threshold53(f) turns the float test u < f on a Float64 draw u = m/2^53
// into the integer test m < Threshold53(f), exactly. It is checked at
// m ∈ {thr−1, thr, thr+1} around each f's threshold thr, for the
// fractions the serving store clamps to (0, 0.02, 0.9), a dyadic f whose
// f·2^53 is an integer, 1 and each of their neighbours one ulp either
// side, then at 10^6 random (f, m) pairs, half of them with m at f·2^53.
// A threshold that floored f·2^53 would fail the first m below every f
// that is not dyadic.
func TestThreshold53MatchesFloatCompare(t *testing.T) {
	check := func(f float64, m uint64) {
		t.Helper()
		if m >= 1<<53 {
			return // not a 53-bit draw
		}
		thr := Threshold53(f)
		if got, want := m < thr, float64(m)/(1<<53) < f; got != want {
			t.Fatalf("f = %v (%#x), m = %d: m < Threshold53(f) = %d is %v, float compare %v",
				f, math.Float64bits(f), m, thr, got, want)
		}
	}
	var fs []float64
	for _, f := range []float64{0, 0.02, 0.9, 0.375 + 3.0/(1<<53), 1} {
		fs = append(fs, f, math.Nextafter(f, -1), math.Nextafter(f, 2))
	}
	for _, f := range fs {
		thr := Threshold53(f)
		for _, m := range []uint64{thr - 1, thr, thr + 1} {
			check(f, m)
		}
	}
	r := NewRNG(52)
	for i := 0; i < 1_000_000; i++ {
		f := r.Float64()
		m := r.Uint64() >> 11
		if i%2 == 0 {
			m = uint64(f*(1<<53)) + uint64(r.Intn(5)) - 2
		}
		check(f, m)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	n := 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGExpPositive(t *testing.T) {
	r := NewRNG(19)
	var sum float64
	n := 100_000
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatalf("negative exponential variate")
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("exp mean = %v, want ~0.5", mean)
	}
}
