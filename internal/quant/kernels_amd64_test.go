//go:build amd64 && !race

package quant

import "testing"

// TestPageKernelsTakeSSE: every tier a head of the modelled dimension
// stores at 8, 4 or 2 bits fills whole SSE2 passes, so its pages go
// through the assembly bodies and not the Go fallback; and each body,
// called directly, writes its Go body's bits. A dispatch that silently
// falls back fails here.
func TestPageKernelsTakeSSE(t *testing.T) {
	const dim = 128
	for _, bits := range []int{8, 4, 2} {
		stride := PackedLen(dim, bits)
		if !interleaves(bits, dim) || !ssePasses(stride) {
			t.Fatalf("%d-bit codes at dim %d (stride %d) skip the SSE2 bodies", bits, dim, stride)
		}
	}
	q := make([]float32, dim)
	dst, ref := make([]float32, dim), make([]float32, dim)
	for i := range q {
		q[i] = float32(i%7) - 2.5
		dst[i], ref[i] = float32(i)/8, float32(i)/8
	}
	ws, wz := [4]float32{0.5, -1, 2, 0.25}, [4]float32{1, -0.5, 0.125, 3}
	dots := map[int]func([]float32, []byte, int, *[4]float32){8: dotSlots8SSE, 4: dotSlots4SSE, 2: dotSlots2SSE}
	axpys := map[int]func([]float32, []byte, int, *[4]float32, *[4]float32){8: axpySlots8SSE, 4: axpySlots4SSE, 2: axpySlots2SSE}
	for _, bits := range []int{8, 4, 2} {
		stride := PackedLen(dim, bits)
		data := make([]byte, 4*stride)
		for i := range data {
			data[i] = byte(i*37 + 11)
		}
		var got [4]float32
		dots[bits](q, data, stride, &got)
		if want := dotPacked4Go(q, data, stride, bits); got != want {
			t.Fatalf("%d-bit SSE2 dot = %v, Go body %v", bits, got, want)
		}
		axpys[bits](dst, data, stride, &ws, &wz)
		axpyPacked4Go(ws, wz, data, stride, bits, ref)
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("%d-bit SSE2 axpy: dst[%d] = %v, Go body %v", bits, i, dst[i], ref[i])
			}
		}
	}
}

// TestQuantizeKernelsRun: at the modelled head dimension QuantizeInto's
// scan and its 8-, 4- and 2-bit code passes go through the SSE2 bodies
// for every whole pass, and leave only the 1-bit width to Go.
func TestQuantizeKernelsRun(t *testing.T) {
	const dim = 128
	src := make([]float32, dim)
	for i := range src {
		src[i] = float32(i%11) - 4.5
	}
	got, lo, hi := minMaxKernel(src[1:], src[0])
	if got != dim-4 {
		t.Fatalf("minMaxKernel took %d of %d elements, want %d", got, dim-1, dim-4)
	}
	if lo != -4.5 || hi != 5.5 {
		t.Fatalf("minMaxKernel found [%v, %v], want [-4.5, 5.5]", lo, hi)
	}
	dst := make([]byte, dim)
	for _, bits := range []int{8, 4, 2} {
		if got := codesKernel(src, -4.5, 0.5, levels(bits), bits, dst); got != dim {
			t.Fatalf("%d-bit codesKernel took %d of %d elements", bits, got, dim)
		}
	}
	if got := codesKernel(src, -4.5, 0.5, 1, 1, dst); got != 0 {
		t.Fatalf("1-bit codesKernel took %d elements, want 0", got)
	}
}
