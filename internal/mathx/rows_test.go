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

// dotRows is the per-row reference every column scorer is held to:
// out[j] = Dot(q, rows[j])·scale.
func dotRows(q []float32, rows [][]float32, scale float32, out []float32) {
	for j, r := range rows {
		out[j] = Dot(q, r) * scale
	}
}

// transpose lays rows out by column, each column holding extra elements
// past the last row.
func transpose(rows [][]float32, dim, extra int) [][]float32 {
	cols := make([][]float32, dim)
	for i := range cols {
		cols[i] = make([]float32, len(rows)+extra)
		for j, r := range rows {
			cols[i][j] = r[i]
		}
	}
	return cols
}

// TestDotRowsBitIdentical: scoring rows through their columns (DotCols)
// writes the per-row Dot loop's bits on every row count and dimension.
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
			DotCols(q, transpose(rows, dim, 0), scale, got)
			want := make([]float32, n)
			dotRows(q, rows, scale, want)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("dim %d rows %d: row %d = %v, per-row Dot %v", dim, n, j, got[j], want[j])
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

// TestDotColsMatchesDotRows: DotCols over the transposed rows writes the
// per-row reference's bits, with every column longer than out (the prefix
// of a longer key set) and out's old contents never read.
func TestDotColsMatchesDotRows(t *testing.T) {
	rng := NewRNG(44)
	counts, dims := rowShapes()
	for _, dim := range dims {
		for _, n := range counts {
			q := make([]float32, dim)
			rng.NormVec(q, 1)
			rows := randRows(rng, n, dim)
			cols := transpose(rows, dim, 3) // the last 3 elements lie past out
			for _, c := range cols {
				rng.NormVec(c[n:], 1.7)
			}
			scale := float32(1 / math.Sqrt(float64(dim)))
			want := make([]float32, n)
			dotRows(q, rows, scale, want)
			got := make([]float32, n)
			for j := range got {
				got[j] = float32(j) + 0.5 // DotCols must not read out
			}
			DotCols(q, cols, scale, got)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("dim %d rows %d: out[%d] = %v, per-row Dot %v", dim, n, j, got[j], want[j])
				}
			}
		}
	}
	mustPanic(t, "DotCols with fewer columns than q", func() {
		DotCols(make([]float32, 8), randRows(rng, 7, 4), 1, make([]float32, 4))
	})
	mustPanic(t, "DotCols with a column shorter than out", func() {
		cols := randRows(rng, 8, 4)
		cols[5] = cols[5][:3]
		DotCols(make([]float32, 8), cols, 1, make([]float32, 4))
	})
}

// TestDotColsAtMatchesDotCols: scoring the listed vectors where they lie
// writes DotCols's bits for each, on every dimension, on sorted, repeated
// and unordered index lists, and leaves out past len(idx) untouched.
func TestDotColsAtMatchesDotCols(t *testing.T) {
	rng := NewRNG(49)
	_, dims := rowShapes()
	const n = 37
	lists := [][]int{nil, {0}, {36}, {3, 4, 5, 30}, {9, 9, 2}, {36, 0, 17, 5, 5, 11, 8, 1, 29}}
	for _, dim := range dims {
		q := make([]float32, dim)
		rng.NormVec(q, 1)
		cols := transpose(randRows(rng, n, dim), dim, 0)
		scale := float32(1 / math.Sqrt(float64(dim)))
		all := make([]float32, n)
		DotCols(q, cols, scale, all)
		for _, idx := range lists {
			got := make([]float32, len(idx)+1)
			got[len(idx)] = 0.5
			DotColsAt(q, cols, idx, scale, got)
			for k, j := range idx {
				if math.Float32bits(got[k]) != math.Float32bits(all[j]) {
					t.Fatalf("dim %d idx %v: out[%d] = %v, DotCols %v", dim, idx, k, got[k], all[j])
				}
			}
			if got[len(idx)] != 0.5 {
				t.Fatalf("dim %d idx %v: wrote past len(idx)", dim, idx)
			}
		}
	}
	mustPanic(t, "DotColsAt with fewer columns than q", func() {
		DotColsAt(make([]float32, 8), randRows(rng, 7, 4), []int{1}, 1, make([]float32, 1))
	})
	mustPanic(t, "DotColsAt with out shorter than idx", func() {
		DotColsAt(make([]float32, 4), randRows(rng, 4, 4), []int{1, 2}, 1, make([]float32, 1))
	})
}

// axpy4Values mixes ordinary draws with the values whose rounding or
// propagation a vector body could get wrong: signed zeros, infinities,
// subnormals, magnitudes whose products overflow or underflow, and NaN.
func axpy4Values(rng *RNG, n int) []float32 {
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

// TestAxpy4MatchesGo holds axpy4 (AVX where usable and SSE2 on amd64
// outside -race) to its Go body bit for bit at every length from 0 to 33
// (each remainder mod 8 with and without a full AVX pass) and around 128,
// on sub-slices that start at every float off a 32-byte boundary, and on
// rows longer than dst. A NaN result must be a NaN on both sides; its
// payload may differ.
func TestAxpy4MatchesGo(t *testing.T) {
	rng := NewRNG(45)
	var lengths []int
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 127, 128, 129)
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			for rep := 0; rep < 8; rep++ {
				var rows [4][]float32
				for r := range rows {
					rows[r] = axpy4Values(rng, off+n+2)[off : off+n+rep%3]
				}
				w := axpy4Values(rng, 4)
				if rep == 0 {
					w = []float32{1, -0.5, 2, 0.25}
				}
				got := axpy4Values(rng, off+n)[off:]
				want := append([]float32(nil), got...)
				axpy4(got, w[0], w[1], w[2], w[3], rows[0], rows[1], rows[2], rows[3])
				axpy4Go(want, w[0], w[1], w[2], w[3], rows[0], rows[1], rows[2], rows[3])
				for i := range want {
					g, x := got[i], want[i]
					if g != g || x != x {
						if g == g || x == x {
							t.Fatalf("len %d off %d rep %d: dst[%d] = %v, Go body %v", n, off, rep, i, g, x)
						}
						continue
					}
					if math.Float32bits(g) != math.Float32bits(x) {
						t.Fatalf("len %d off %d rep %d: dst[%d] = %v (%#08x), Go body %v (%#08x)",
							n, off, rep, i, g, math.Float32bits(g), x, math.Float32bits(x))
					}
				}
			}
		}
	}
}

func TestDotColsZeroAllocs(t *testing.T) {
	rng := NewRNG(46)
	q := make([]float32, 128)
	rng.NormVec(q, 1)
	cols := randRows(rng, 128, 384)
	out := make([]float32, 301)
	if allocs := testing.AllocsPerRun(20, func() { DotCols(q, cols, 0.5, out) }); allocs != 0 {
		t.Fatalf("DotCols allocated %v per run", allocs)
	}
}

// BenchmarkDotCols scores one dim-128 query against 384 keys laid out by
// column, the shape of SignificancePrefix's inner call.
func BenchmarkDotCols(b *testing.B) {
	rng := NewRNG(47)
	q := make([]float32, 128)
	rng.NormVec(q, 1)
	cols := randRows(rng, 128, 384)
	out := make([]float32, 384)
	for b.Loop() {
		DotCols(q, cols, 0.088, out)
	}
}

// BenchmarkAxpyRows adds 384 weighted dim-128 rows into one vector, the
// shape of an attention output over 384 keys.
func BenchmarkAxpyRows(b *testing.B) {
	rng := NewRNG(48)
	rows := randRows(rng, 384, 128)
	w := make([]float32, 384)
	rng.NormVec(w, 0.1)
	dst := make([]float32, 128)
	for b.Loop() {
		AxpyRows(w, rows, dst)
	}
}

// TestRowKernelsPanicOnRowLength: a row shorter or longer than the vector
// panics in AxpyRows, as it does in Axpy, whether it sits in a group of
// four or in the tail.
func TestRowKernelsPanicOnRowLength(t *testing.T) {
	const dim = 8
	rng := NewRNG(43)
	for _, n := range []int{4, 5, 7} {
		for bad := 0; bad < n; bad++ {
			for _, badLen := range []int{dim - 1, dim + 1} {
				rows := randRows(rng, n, dim)
				rows[bad] = make([]float32, badLen)
				name := fmt.Sprintf("rows %d, row %d of length %d", n, bad, badLen)
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
