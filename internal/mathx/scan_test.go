package mathx

import (
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
