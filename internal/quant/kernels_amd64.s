//go:build amd64 && !race

#include "textflag.h"

// SSE2 bodies of dotPacked4 and axpyPacked4. Every pass reads four bytes
// of each of the four slots (MOVL). Each lane runs one scalar chain of the
// Go body in its order, with a MULPS and an ADDPS wherever the Go body
// rounds a product and a sum, never a fused op, so every lane rounds where
// MULSS/ADDSS would. A code is an integer below 256, so CVTPL2PS converts
// it exactly.

// SLOTS loads the four slot pointers: slot k of data starts k·stride
// bytes in. CX gets the number of four-byte passes, AX the byte offset.
#define SLOTS \
	MOVQ  data_base+24(FP), DI; \
	MOVQ  stride+48(FP), CX; \
	LEAQ  (DI)(CX*1), R8; \
	LEAQ  (R8)(CX*1), R9; \
	LEAQ  (R9)(CX*1), R10; \
	SHRQ  $2, CX; \
	XORQ  AX, AX; \
	PXOR  X7, X7

// TRANSPOSE loads four bytes of each slot at AX and leaves byte b of the
// four slots widened to dwords, slot k in lane k: b = 0 in X1, 1 in X3,
// 2 in X2, 3 in X4. X7 must be zero.
#define TRANSPOSE \
	MOVL      (DI)(AX*1), X1; \
	MOVL      (R8)(AX*1), X2; \
	MOVL      (R9)(AX*1), X3; \
	MOVL      (R10)(AX*1), X4; \
	PUNPCKLBW X2, X1; \
	PUNPCKLBW X4, X3; \
	PUNPCKLWL X3, X1; \
	MOVOU     X1, X2; \
	PUNPCKLBW X7, X1; \
	PUNPCKHBW X7, X2; \
	MOVOU     X1, X3; \
	PUNPCKLWL X7, X1; \
	PUNPCKHWL X7, X3; \
	MOVOU     X2, X4; \
	PUNPCKLWL X7, X2; \
	PUNPCKHWL X7, X4

// CODES turns sixteen floats at SI into their clamped codes, one per word:
// elements 0-7 in X0 and 8-15 in X2. Each lane computes
// int(float32((v-zero)·inv) + 0.5) as code does: SUBPS, MULPS, ADDPS, then
// CVTTPS2PL truncates toward zero (NaN and ±Inf give a negative integer,
// as Go's conversion does on amd64), PACKSSLW saturates to words and
// PMAXSW/PMINSW clamp to [0, l]. X4 holds zero, X5 inv, X6 0.5, X7 l in
// every word and X8 zero bits.
#define CODES \
	MOVUPS    (SI), X0; \
	MOVUPS    16(SI), X1; \
	MOVUPS    32(SI), X2; \
	MOVUPS    48(SI), X3; \
	SUBPS     X4, X0; \
	SUBPS     X4, X1; \
	SUBPS     X4, X2; \
	SUBPS     X4, X3; \
	MULPS     X5, X0; \
	MULPS     X5, X1; \
	MULPS     X5, X2; \
	MULPS     X5, X3; \
	ADDPS     X6, X0; \
	ADDPS     X6, X1; \
	ADDPS     X6, X2; \
	ADDPS     X6, X3; \
	CVTTPS2PL X0, X0; \
	CVTTPS2PL X1, X1; \
	CVTTPS2PL X2, X2; \
	CVTTPS2PL X3, X3; \
	PACKSSLW  X1, X0; \
	PACKSSLW  X3, X2; \
	PMAXSW    X8, X0; \
	PMAXSW    X8, X2; \
	PMINSW    X7, X0; \
	PMINSW    X7, X2

// CODESETUP loads the arguments of the codes kernels: SI the floats, DI
// the bytes, CX the number of sixteen-element passes, and CODES'
// constants.
#define CODESETUP \
	MOVQ   src_base+0(FP), SI; \
	MOVQ   src_len+8(FP), CX; \
	MOVQ   dst_base+40(FP), DI; \
	MOVSS  zero+24(FP), X4; \
	SHUFPS $0x00, X4, X4; \
	MOVSS  inv+28(FP), X5; \
	SHUFPS $0x00, X5, X5; \
	MOVL   $0x3f000000, AX; \
	MOVL   AX, X6; \
	PSHUFD $0x00, X6, X6; \
	MOVQ   l+32(FP), AX; \
	MOVQ   AX, DX; \
	SHLQ   $16, DX; \
	ORQ    DX, AX; \
	MOVL   AX, X7; \
	PSHUFD $0x00, X7, X7; \
	PXOR   X8, X8; \
	SHRQ   $4, CX

// BCAST broadcasts dword k of the ws and wz arrays into WS and WZ.
#define BCAST(k, WS, WZ) \
	MOVSS  (k*4)(R11), WS; \
	SHUFPS $0x00, WS, WS; \
	MOVSS  (k*4)(R12), WZ; \
	SHUFPS $0x00, WZ, WZ

// func dotSlots8SSE(q []float32, data []byte, stride int, s *[4]float32)
//
// Lane k sums q[i]·code of slot k one element at a time, in i order.
#define DOT8(E, lane) \
	CVTPL2PS E, E; \
	PSHUFD   $lane, X5, X6; \
	MULPS    X6, E; \
	ADDPS    E, X0

TEXT ·dotSlots8SSE(SB), NOSPLIT, $0-64
	MOVQ q_base+0(FP), SI
	SLOTS
	PXOR X0, X0
	TESTQ CX, CX
	JZ   done8

loop8:
	TRANSPOSE
	MOVUPS (SI), X5
	DOT8(X1, 0x00)
	DOT8(X3, 0x55)
	DOT8(X2, 0xAA)
	DOT8(X4, 0xFF)
	ADDQ   $4, AX
	ADDQ   $16, SI
	DECQ   CX
	JNZ    loop8

done8:
	MOVQ   s+56(FP), DX
	MOVUPS X0, (DX)
	RET

// func dotSlots4SSE(q []float32, data []byte, stride int, s *[4]float32)
//
// Per byte, lane k adds q0·lo + q1·hi of slot k's byte to its sum: the
// two products, their sum, then the add.
#define DOT4(E, Q, lo, hi) \
	MOVOU    E, X9; \
	PAND     X8, X9; \
	CVTPL2PS X9, X9; \
	PSHUFD   $lo, Q, X10; \
	MULPS    X10, X9; \
	PSRLL    $4, E; \
	CVTPL2PS E, E; \
	PSHUFD   $hi, Q, X10; \
	MULPS    X10, E; \
	ADDPS    E, X9; \
	ADDPS    X9, X0

TEXT ·dotSlots4SSE(SB), NOSPLIT, $0-64
	MOVQ   q_base+0(FP), SI
	SLOTS
	MOVL   $0x0f, DX
	MOVL   DX, X8
	PSHUFD $0x00, X8, X8
	PXOR   X0, X0
	TESTQ  CX, CX
	JZ     done4

loop4:
	TRANSPOSE
	MOVUPS (SI), X5
	MOVUPS 16(SI), X6
	DOT4(X1, X5, 0x00, 0x55)
	DOT4(X3, X5, 0xAA, 0xFF)
	DOT4(X2, X6, 0x00, 0x55)
	DOT4(X4, X6, 0xAA, 0xFF)
	ADDQ   $4, AX
	ADDQ   $32, SI
	DECQ   CX
	JNZ    loop4

done4:
	MOVQ   s+56(FP), DX
	MOVUPS X0, (DX)
	RET

// func dotSlots2SSE(q []float32, data []byte, stride int, s *[4]float32)
//
// Per byte, lane k adds ((q0·c0 + q1·c1) + q2·c2) + q3·c3 of slot k's
// byte to its sum.
#define CRUMB(E, shift, lane) \
	MOVOU    E, X11; \
	PSRLL    $shift, X11; \
	PAND     X8, X11; \
	CVTPL2PS X11, X11; \
	PSHUFD   $lane, X5, X10; \
	MULPS    X10, X11; \
	ADDPS    X11, X9

#define DOT2(E, off) \
	MOVUPS   off(SI), X5; \
	MOVOU    E, X9; \
	PAND     X8, X9; \
	CVTPL2PS X9, X9; \
	PSHUFD   $0x00, X5, X10; \
	MULPS    X10, X9; \
	CRUMB(E, 2, 0x55); \
	CRUMB(E, 4, 0xAA); \
	PSRLL    $6, E; \
	CVTPL2PS E, E; \
	PSHUFD   $0xFF, X5, X10; \
	MULPS    X10, E; \
	ADDPS    E, X9; \
	ADDPS    X9, X0

TEXT ·dotSlots2SSE(SB), NOSPLIT, $0-64
	MOVQ   q_base+0(FP), SI
	SLOTS
	MOVL   $0x03, DX
	MOVL   DX, X8
	PSHUFD $0x00, X8, X8
	PXOR   X0, X0
	TESTQ  CX, CX
	JZ     done2

loop2:
	TRANSPOSE
	DOT2(X1, 0)
	DOT2(X3, 16)
	DOT2(X2, 32)
	DOT2(X4, 48)
	ADDQ   $4, AX
	ADDQ   $64, SI
	DECQ   CX
	JNZ    loop2

done2:
	MOVQ   s+56(FP), DX
	MOVUPS X0, (DX)
	RET

// func axpySlots8SSE(dst []float32, data []byte, stride int, ws, wz *[4]float32)
//
// Lanes hold four consecutive elements; each receives ws[k]·code + wz[k]
// of slot k, slots in order: the product, plus wz[k], then the add.
#define AXPY8(D, WS, WZ) \
	MOVL      (D)(AX*1), X1; \
	PUNPCKLBW X7, X1; \
	PUNPCKLWL X7, X1; \
	CVTPL2PS  X1, X1; \
	MULPS     WS, X1; \
	ADDPS     WZ, X1; \
	ADDPS     X1, X0

TEXT ·axpySlots8SSE(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), SI
	MOVQ ws+56(FP), R11
	MOVQ wz+64(FP), R12
	SLOTS
	BCAST(0, X2, X6)
	BCAST(1, X3, X8)
	BCAST(2, X4, X9)
	BCAST(3, X5, X10)
	TESTQ CX, CX
	JZ    doneA8

loopA8:
	MOVUPS (SI), X0
	AXPY8(DI, X2, X6)
	AXPY8(R8, X3, X8)
	AXPY8(R9, X4, X9)
	AXPY8(R10, X5, X10)
	MOVUPS X0, (SI)
	ADDQ   $4, AX
	ADDQ   $16, SI
	DECQ   CX
	JNZ    loopA8

doneA8:
	RET

// func axpySlots4SSE(dst []float32, data []byte, stride int, ws, wz *[4]float32)
//
// A pass covers eight elements, X0 and X1: each slot's nibbles are
// interleaved into element order (lo, hi of each byte) before they widen.
#define AXPY4(D, WS, WZ) \
	MOVL      (D)(AX*1), X12; \
	MOVOU     X12, X13; \
	PSRLW     $4, X13; \
	PAND      X11, X12; \
	PAND      X11, X13; \
	PUNPCKLBW X13, X12; \
	PUNPCKLBW X7, X12; \
	MOVOU     X12, X13; \
	PUNPCKLWL X7, X12; \
	PUNPCKHWL X7, X13; \
	CVTPL2PS  X12, X12; \
	MULPS     WS, X12; \
	ADDPS     WZ, X12; \
	ADDPS     X12, X0; \
	CVTPL2PS  X13, X13; \
	MULPS     WS, X13; \
	ADDPS     WZ, X13; \
	ADDPS     X13, X1

TEXT ·axpySlots4SSE(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), SI
	MOVQ   ws+56(FP), R11
	MOVQ   wz+64(FP), R12
	SLOTS
	BCAST(0, X2, X6)
	BCAST(1, X3, X8)
	BCAST(2, X4, X9)
	BCAST(3, X5, X10)
	MOVL   $0x0f0f0f0f, DX
	MOVL   DX, X11
	PSHUFD $0x00, X11, X11
	TESTQ  CX, CX
	JZ     doneA4

loopA4:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	AXPY4(DI, X2, X6)
	AXPY4(R8, X3, X8)
	AXPY4(R9, X4, X9)
	AXPY4(R10, X5, X10)
	MOVUPS X0, (SI)
	MOVUPS X1, 16(SI)
	ADDQ   $4, AX
	ADDQ   $32, SI
	DECQ   CX
	JNZ    loopA4

doneA4:
	RET

// func axpySlots2SSE(dst []float32, data []byte, stride int, ws, wz *[4]float32)
//
// A pass covers sixteen elements, X0 to X3. A slot's four bytes spread
// into crumb order (c0..c3 of each byte) by two interleaves of shifted
// copies and one mask; slot k's weights are broadcast from X5 and X6.
#define AXPY2(D, lane) \
	PSHUFD    $lane, X5, X8; \
	PSHUFD    $lane, X6, X9; \
	MOVL      (D)(AX*1), X10; \
	MOVOU     X10, X11; \
	PSRLW     $2, X11; \
	PUNPCKLBW X11, X10; \
	MOVOU     X10, X11; \
	PSRLW     $4, X11; \
	PUNPCKLWL X11, X10; \
	PAND      X4, X10; \
	MOVOU     X10, X11; \
	PUNPCKLBW X7, X10; \
	PUNPCKHBW X7, X11; \
	MOVOU     X10, X12; \
	PUNPCKLWL X7, X10; \
	PUNPCKHWL X7, X12; \
	MOVOU     X11, X13; \
	PUNPCKLWL X7, X11; \
	PUNPCKHWL X7, X13; \
	CVTPL2PS  X10, X10; \
	MULPS     X8, X10; \
	ADDPS     X9, X10; \
	ADDPS     X10, X0; \
	CVTPL2PS  X12, X12; \
	MULPS     X8, X12; \
	ADDPS     X9, X12; \
	ADDPS     X12, X1; \
	CVTPL2PS  X11, X11; \
	MULPS     X8, X11; \
	ADDPS     X9, X11; \
	ADDPS     X11, X2; \
	CVTPL2PS  X13, X13; \
	MULPS     X8, X13; \
	ADDPS     X9, X13; \
	ADDPS     X13, X3

TEXT ·axpySlots2SSE(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), SI
	MOVQ   ws+56(FP), R11
	MOVQ   wz+64(FP), R12
	SLOTS
	MOVUPS (R11), X5
	MOVUPS (R12), X6
	MOVL   $0x03030303, DX
	MOVL   DX, X4
	PSHUFD $0x00, X4, X4
	TESTQ  CX, CX
	JZ     doneA2

loopA2:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	AXPY2(DI, 0x00)
	AXPY2(R8, 0x55)
	AXPY2(R9, 0xAA)
	AXPY2(R10, 0xFF)
	MOVUPS X0, (SI)
	MOVUPS X1, 16(SI)
	MOVUPS X2, 32(SI)
	MOVUPS X3, 48(SI)
	ADDQ   $4, AX
	ADDQ   $64, SI
	DECQ   CX
	JNZ    loopA2

doneA2:
	RET

// func codes8SSE(src []float32, zero, inv float32, l int, dst []byte)
//
// QuantizeInto's 8-bit codes for the first len(src)&^15 elements, one
// byte each.
TEXT ·codes8SSE(SB), NOSPLIT, $0-64
	CODESETUP
	JZ done8c

loop8c:
	CODES
	PACKUSWB X2, X0
	MOVOU    X0, (DI)
	ADDQ     $64, SI
	ADDQ     $16, DI
	DECQ     CX
	JNZ      loop8c

done8c:
	RET

// func codes4SSE(src []float32, zero, inv float32, l int, dst []byte)
//
// QuantizeInto's 4-bit codes for the first len(src)&^15 elements, two to
// a byte, the even element in the low nibble: a dword holding words e, f
// becomes e | f<<4.
#define NIBBLES(X) \
	MOVOU X, X9; \
	PSRLL $12, X9; \
	PAND  X11, X9; \
	PAND  X10, X; \
	POR   X9, X

TEXT ·codes4SSE(SB), NOSPLIT, $0-64
	CODESETUP
	MOVL   $0x0f, AX
	MOVL   AX, X10
	PSHUFD $0x00, X10, X10
	MOVL   $0xf0, AX
	MOVL   AX, X11
	PSHUFD $0x00, X11, X11
	TESTQ  CX, CX
	JZ     done4c

loop4c:
	CODES
	NIBBLES(X0)
	NIBBLES(X2)
	PACKSSLW X2, X0
	PACKUSWB X0, X0
	MOVQ     X0, (DI)
	ADDQ     $64, SI
	ADDQ     $8, DI
	DECQ     CX
	JNZ      loop4c

done4c:
	RET

// func codes2SSE(src []float32, zero, inv float32, l int, dst []byte)
//
// QuantizeInto's 2-bit codes for the first len(src)&^15 elements, four to
// a byte from the low bits up: crumb pairs e | f<<2 first, then nibble
// pairs as at 4 bits.
#define CRUMBS(X) \
	MOVOU X, X9; \
	PSRLL $14, X9; \
	PAND  X13, X9; \
	PAND  X12, X; \
	POR   X9, X

TEXT ·codes2SSE(SB), NOSPLIT, $0-64
	CODESETUP
	MOVL   $0x0f, AX
	MOVL   AX, X10
	PSHUFD $0x00, X10, X10
	MOVL   $0xf0, AX
	MOVL   AX, X11
	PSHUFD $0x00, X11, X11
	MOVL   $0x03, AX
	MOVL   AX, X12
	PSHUFD $0x00, X12, X12
	MOVL   $0x0c, AX
	MOVL   AX, X13
	PSHUFD $0x00, X13, X13
	TESTQ  CX, CX
	JZ     done2c

loop2c:
	CODES
	CRUMBS(X0)
	CRUMBS(X2)
	PACKSSLW X2, X0
	NIBBLES(X0)
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVL     X0, (DI)
	ADDQ     $64, SI
	ADDQ     $4, DI
	DECQ     CX
	JNZ      loop2c

done2c:
	RET

// func minMaxSSE(src []float32, init float32) (lo, hi float32)
//
// QuantizeInto's min/max scan over the first len(src)&^3 elements, four
// lanes that each start at init. A lane keeps its value unless the
// element is strictly below (above) it, exactly as the scalar
// `if v < minV { minV = v }`: MINPS and MAXPS return their second operand,
// the lane, when the compare is false or either side is NaN. The lanes are
// then folded the same way.
TEXT ·minMaxSSE(SB), NOSPLIT, $0-40
	MOVQ   src_base+0(FP), SI
	MOVQ   src_len+8(FP), CX
	MOVSS  init+24(FP), X0
	SHUFPS $0x00, X0, X0
	MOVOU  X0, X1
	SHRQ   $2, CX
	JZ     fold

mmloop:
	MOVUPS (SI), X2
	MOVOU  X2, X3
	MINPS  X0, X2
	MAXPS  X1, X3
	MOVOU  X2, X0
	MOVOU  X3, X1
	ADDQ   $16, SI
	DECQ   CX
	JNZ    mmloop

fold:
	PSHUFD $0x4e, X0, X2
	MINPS  X0, X2
	PSHUFD $0xb1, X2, X0
	MINPS  X2, X0
	PSHUFD $0x4e, X1, X3
	MAXPS  X1, X3
	PSHUFD $0xb1, X3, X1
	MAXPS  X3, X1
	MOVSS  X0, lo+32(FP)
	MOVSS  X1, hi+36(FP)
	RET
