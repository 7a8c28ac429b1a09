//go:build amd64 && !race

package quant

import "fmt"

// dotPacked4 is dotPacked over four slots stored at stride, bit for bit as
// dotPacked4Go: the SSE2 bodies hold slot k in lane k and add each byte's
// terms in the Go expression's order. A stride that is not a whole number
// of four-byte passes takes the Go body. Only shapes interleaves accepts
// reach it.
func dotPacked4(q []float32, data []byte, stride, bits int) [4]float32 {
	if !ssePasses(stride) {
		return dotPacked4Go(q, data, stride, bits)
	}
	data = data[:4*stride]
	var s [4]float32
	switch bits {
	case 8:
		dotSlots8SSE(q[:stride], data, stride, &s)
	case 4:
		dotSlots4SSE(q[:2*stride], data, stride, &s)
	case 2:
		dotSlots2SSE(q[:4*stride], data, stride, &s)
	default:
		panic(fmt.Sprintf("quant: no four-slot dot at %d bits", bits))
	}
	return s
}

// axpyPacked4 is axpyPacked over four slots stored at stride, bit for bit
// as axpyPacked4Go: the SSE2 bodies hold consecutive elements in their
// lanes and add the four slots' terms to each in slot order. A stride that
// is not a whole number of four-byte passes takes the Go body. Only shapes
// interleaves accepts reach it.
func axpyPacked4(ws, wz [4]float32, data []byte, stride, bits int, dst []float32) {
	if !ssePasses(stride) {
		axpyPacked4Go(ws, wz, data, stride, bits, dst)
		return
	}
	data = data[:4*stride]
	switch bits {
	case 8:
		axpySlots8SSE(dst[:stride], data, stride, &ws, &wz)
	case 4:
		axpySlots4SSE(dst[:2*stride], data, stride, &ws, &wz)
	case 2:
		axpySlots2SSE(dst[:4*stride], data, stride, &ws, &wz)
	default:
		panic(fmt.Sprintf("quant: no four-slot axpy at %d bits", bits))
	}
}

// ssePasses reports whether slots of stride bytes go through the SSE2
// bodies: a whole number of their four-byte passes.
func ssePasses(stride int) bool { return stride%4 == 0 }

// The SSE2 bodies (kernels_amd64.s) take four slots of stride bytes each
// from data, stride a positive multiple of 4, and q or dst holding the
// stride·8/bits elements the slots decode to. Each pass reads four bytes
// of every slot.

// dotSlots8SSE writes dotPacked4Go's four 8-bit sums into s.
//
//go:noescape
func dotSlots8SSE(q []float32, data []byte, stride int, s *[4]float32)

// dotSlots4SSE writes dotPacked4Go's four 4-bit sums into s.
//
//go:noescape
func dotSlots4SSE(q []float32, data []byte, stride int, s *[4]float32)

// dotSlots2SSE writes dotPacked4Go's four 2-bit sums into s.
//
//go:noescape
func dotSlots2SSE(q []float32, data []byte, stride int, s *[4]float32)

// axpySlots8SSE is axpyPacked4Go at 8 bits.
//
//go:noescape
func axpySlots8SSE(dst []float32, data []byte, stride int, ws, wz *[4]float32)

// axpySlots4SSE is axpyPacked4Go at 4 bits.
//
//go:noescape
func axpySlots4SSE(dst []float32, data []byte, stride int, ws, wz *[4]float32)

// axpySlots2SSE is axpyPacked4Go at 2 bits.
//
//go:noescape
func axpySlots2SSE(dst []float32, data []byte, stride int, ws, wz *[4]float32)

// minMaxKernel folds the first len(src)&^3 elements, from init, into the
// smallest and largest as QuantizeInto's scalar scan would, in SSE2, and
// returns that count with the two.
func minMaxKernel(src []float32, init float32) (k int, lo, hi float32) {
	k = len(src) &^ 3
	if k == 0 {
		return 0, init, init
	}
	lo, hi = minMaxSSE(src[:k], init)
	return k, lo, hi
}

// codesKernel writes QuantizeInto's 8-, 4- or 2-bit codes for the first
// len(src)&^15 elements into dst in SSE2 and returns that count, or 0 at
// 1 bit.
func codesKernel(src []float32, zero, inv float32, l, bits int, dst []byte) int {
	m := len(src) &^ 15
	if m == 0 {
		return 0
	}
	switch bits {
	case 8:
		codes8SSE(src[:m], zero, inv, l, dst[:m])
	case 4:
		codes4SSE(src[:m], zero, inv, l, dst[:m/2])
	case 2:
		codes2SSE(src[:m], zero, inv, l, dst[:m/4])
	default:
		return 0
	}
	return m
}

// minMaxSSE is QuantizeInto's min/max scan over the first len(src)&^3
// elements, four lanes that start at init (kernels_amd64.s).
//
//go:noescape
func minMaxSSE(src []float32, init float32) (lo, hi float32)

// codes8SSE, codes4SSE and codes2SSE write the codes of the first
// len(src)&^15 elements at 8, 4 and 2 bits (kernels_amd64.s).
//
//go:noescape
func codes8SSE(src []float32, zero, inv float32, l int, dst []byte)

//go:noescape
func codes4SSE(src []float32, zero, inv float32, l int, dst []byte)

//go:noescape
func codes2SSE(src []float32, zero, inv float32, l int, dst []byte)
