package mathx

import (
	"fmt"
	"math"
	"testing"
)

// rowShapes are the (rows, dim) pairs the row kernels are checked on: every
// remainder of the row count mod 4, and dimensions around the usual head
// sizes.
func rowShapes() (counts, dims []int) {
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{1, 2, 3, 7, 64, 127, 128}
}

func randRows(rng *RNG, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for j := range rows {
		rows[j] = make([]float32, dim)
		rng.NormVec(rows[j], 1.7)
	}
	return rows
}

func TestDotRowsBitIdentical(t *testing.T) {
	rng := NewRNG(41)
	counts, dims := rowShapes()
	for _, dim := range dims {
		for _, n := range counts {
			q := make([]float32, dim)
			rng.NormVec(q, 1)
			rows := randRows(rng, n, dim)
			scale := float32(1 / math.Sqrt(float64(dim)))
			got := make([]float32, n)
			DotRows(q, rows, scale, got)
			for j, r := range rows {
				want := Dot(q, r) * scale
				if math.Float32bits(got[j]) != math.Float32bits(want) {
					t.Fatalf("dim %d rows %d: row %d = %v, per-row Dot %v", dim, n, j, got[j], want)
				}
			}
		}
	}
}

func TestAxpyRowsBitIdentical(t *testing.T) {
	rng := NewRNG(42)
	counts, dims := rowShapes()
	for _, dim := range dims {
		for _, n := range counts {
			rows := randRows(rng, n, dim)
			w := make([]float32, n)
			rng.NormVec(w, 0.5)
			got := make([]float32, dim)
			rng.NormVec(got, 1)
			want := append([]float32(nil), got...)
			AxpyRows(w, rows, got)
			for j, r := range rows {
				Axpy(w[j], r, want)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("dim %d rows %d: dst[%d] = %v, per-row Axpy %v", dim, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRowKernelsPanicOnRowLength: a row shorter or longer than the vector
// panics, as Dot and Axpy do, whether it sits in a group of four or in the
// tail.
func TestRowKernelsPanicOnRowLength(t *testing.T) {
	const dim = 8
	rng := NewRNG(43)
	for _, n := range []int{4, 5, 7} {
		for bad := 0; bad < n; bad++ {
			for _, badLen := range []int{dim - 1, dim + 1} {
				rows := randRows(rng, n, dim)
				rows[bad] = make([]float32, badLen)
				name := fmt.Sprintf("rows %d, row %d of length %d", n, bad, badLen)
				mustPanic(t, "DotRows "+name, func() {
					DotRows(make([]float32, dim), rows, 1, make([]float32, n))
				})
				mustPanic(t, "AxpyRows "+name, func() {
					AxpyRows(make([]float32, n), rows, make([]float32, dim))
				})
			}
		}
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}
