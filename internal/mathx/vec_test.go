package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float32{1, 1, 1}
	Axpy(2, []float32{1, 2, 3}, dst)
	want := []float32{3, 5, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestScale(t *testing.T) {
	x := []float32{1, -2, 4}
	Scale(0.5, x)
	want := []float32{0.5, -1, 2}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scale x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	logits := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	Softmax(logits, dst)
	var sum float64
	for _, v := range dst {
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-6) {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	for i := 1; i < len(dst); i++ {
		if dst[i] <= dst[i-1] {
			t.Fatalf("softmax not monotone with logits: %v", dst)
		}
	}
}

func TestSoftmaxStableUnderLargeLogits(t *testing.T) {
	logits := []float32{1000, 1001, 1002}
	dst := make([]float32, 3)
	Softmax(logits, dst)
	var sum float64
	for _, v := range dst {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax produced non-finite value: %v", dst)
		}
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-6) {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float32{0.5, -1.5, 2.0}
	b := []float32{100.5, 98.5, 102.0}
	da := make([]float32, 3)
	db := make([]float32, 3)
	Softmax(a, da)
	Softmax(b, db)
	for i := range da {
		if !almostEq(float64(da[i]), float64(db[i]), 1e-5) {
			t.Fatalf("softmax not shift invariant: %v vs %v", da, db)
		}
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	x := []float32{1, 2, 3}
	Softmax(x, x)
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-6) {
		t.Fatalf("in-place softmax sum = %v", sum)
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	out := Softmax(nil, nil)
	if len(out) != 0 {
		t.Fatalf("expected empty output")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr([]float32{1, 1}, []float32{1, 1}); got != 0 {
		t.Fatalf("RelErr identical = %v, want 0", got)
	}
	got := RelErr([]float32{2, 0}, []float32{1, 0})
	if !almostEq(got, 1, 1e-9) {
		t.Fatalf("RelErr = %v, want 1", got)
	}
}

func TestRelErrZeroDenominator(t *testing.T) {
	got := RelErr([]float32{3, 4}, []float32{0, 0})
	if !almostEq(got, 5, 1e-9) {
		t.Fatalf("RelErr vs zero = %v, want 5", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp bounds incorrect")
	}
}

// Property: softmax output is always a probability distribution.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float32, len(raw))
		for i, v := range raw {
			logits[i] = float32(v) / 100
		}
		dst := make([]float32, len(logits))
		Softmax(logits, dst)
		var sum float64
		for _, v := range dst {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(raw []int8) bool {
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		for i, v := range raw {
			a[i] = float32(v)
			b[i] = float32(int(v)*3%17) - 8
		}
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
