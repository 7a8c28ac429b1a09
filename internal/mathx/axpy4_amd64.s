//go:build amd64 && !race

#include "textflag.h"

// func axpy4SSE(dst, r0, r1, r2, r3 []float32, w0, w1, w2, w3 float32)
//
// Four elements per iteration, one per lane: the lane computes
// (((d + w0·r0) + w1·r1) + w2·r2) + w3·r3 with a MULPS and an ADDPS per
// row, the scalar order of axpy4Go, so every lane rounds as MULSS/ADDSS
// would. The len(dst)&3 remaining elements are left to the caller.
TEXT ·axpy4SSE(SB), NOSPLIT, $0-136
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   r0_base+24(FP), R8
	MOVQ   r1_base+48(FP), R9
	MOVQ   r2_base+72(FP), R10
	MOVQ   r3_base+96(FP), R11
	MOVSS  w0+120(FP), X4
	SHUFPS $0x00, X4, X4
	MOVSS  w1+124(FP), X5
	SHUFPS $0x00, X5, X5
	MOVSS  w2+128(FP), X6
	SHUFPS $0x00, X6, X6
	MOVSS  w3+132(FP), X7
	SHUFPS $0x00, X7, X7
	SHRQ   $2, CX
	JZ     done
	XORQ   AX, AX

loop:
	MOVUPS (DI)(AX*1), X0
	MOVUPS (R8)(AX*1), X1
	MULPS  X4, X1
	ADDPS  X1, X0
	MOVUPS (R9)(AX*1), X2
	MULPS  X5, X2
	ADDPS  X2, X0
	MOVUPS (R10)(AX*1), X3
	MULPS  X6, X3
	ADDPS  X3, X0
	MOVUPS (R11)(AX*1), X1
	MULPS  X7, X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    loop

done:
	RET

// func axpy4AVX(dst, r0, r1, r2, r3 []float32, w0, w1, w2, w3 float32)
//
// axpy4SSE eight elements per iteration: a VMULPS then a VADDPS per row,
// never a fused op, so every lane rounds as MULSS/ADDSS would. The
// len(dst)&7 remaining elements are left to the caller.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-136
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSS w0+120(FP), Y4
	VBROADCASTSS w1+124(FP), Y5
	VBROADCASTSS w2+128(FP), Y6
	VBROADCASTSS w3+132(FP), Y7
	SHRQ         $3, CX
	JZ           avxdone
	XORQ         AX, AX

avxloop:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (R8)(AX*1), Y4, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*1), Y5, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  (R10)(AX*1), Y6, Y3
	VADDPS  Y3, Y0, Y0
	VMULPS  (R11)(AX*1), Y7, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     avxloop

avxdone:
	VZEROUPPER
	RET
