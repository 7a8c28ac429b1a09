//go:build amd64 && !race

#include "textflag.h"

// Each constant twice, one copy per lane. The exp constants are those of
// math/exp_amd64.s; the log constants those of math/log_amd64.s.
DATA expvec<>+0(SB)/8, $1.4426950408889634073599246810018920 // log2(e)
DATA expvec<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expvec<>+16(SB)/8, $0.69314718055966295651160180568695068359375 // upper half ln2
DATA expvec<>+24(SB)/8, $0.69314718055966295651160180568695068359375
DATA expvec<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // lower half ln2
DATA expvec<>+40(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expvec<>+48(SB)/8, $0.0625
DATA expvec<>+56(SB)/8, $0.0625
DATA expvec<>+64(SB)/8, $2.4801587301587301587e-5
DATA expvec<>+72(SB)/8, $2.4801587301587301587e-5
DATA expvec<>+80(SB)/8, $1.9841269841269841270e-4
DATA expvec<>+88(SB)/8, $1.9841269841269841270e-4
DATA expvec<>+96(SB)/8, $1.3888888888888888889e-3
DATA expvec<>+104(SB)/8, $1.3888888888888888889e-3
DATA expvec<>+112(SB)/8, $8.3333333333333333333e-3
DATA expvec<>+120(SB)/8, $8.3333333333333333333e-3
DATA expvec<>+128(SB)/8, $4.1666666666666666667e-2
DATA expvec<>+136(SB)/8, $4.1666666666666666667e-2
DATA expvec<>+144(SB)/8, $1.6666666666666666667e-1
DATA expvec<>+152(SB)/8, $1.6666666666666666667e-1
DATA expvec<>+160(SB)/8, $0.5
DATA expvec<>+168(SB)/8, $0.5
DATA expvec<>+176(SB)/8, $1.0
DATA expvec<>+184(SB)/8, $1.0
DATA expvec<>+192(SB)/8, $2.0
DATA expvec<>+200(SB)/8, $2.0
DATA expvec<>+208(SB)/4, $0x3FF // exponent bias, one per dword
DATA expvec<>+212(SB)/4, $0x3FF
DATA expvec<>+216(SB)/4, $0x3FF
DATA expvec<>+220(SB)/4, $0x3FF
DATA expvec<>+224(SB)/4, $0x7FF // first biased exponent past the normals
DATA expvec<>+228(SB)/4, $0x7FF
DATA expvec<>+232(SB)/4, $0x7FF
DATA expvec<>+236(SB)/4, $0x7FF
GLOBL expvec<>(SB), RODATA, $240

// func expPairs(dst, src []float64) int
//
// The AVX+FMA path of math.Exp (math/exp_amd64.s), two lanes per
// instruction and each lane the scalar steps in their order: k =
// round(x·log2e), r = x − k·ln2U − k·ln2L (fused), r·0.0625, the fused
// Horner steps, the four doubling steps (the last fused with its +1), and
// the product with 2^k. It works through the len(src)&^1 elements a pair
// at a time and stops at the first pair with a lane whose biased exponent
// k+0x3FF is outside [1, 0x7FE]: NaN, ±Inf, overflow, and subnormal or
// zero results, the only inputs math.Exp leaves its main path for. It
// returns the number of elements written. dst must hold as many as src.
// VEX-128 only: no YMM register, no AVX2 instruction.
TEXT ·expPairs(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	SHRQ    $1, CX
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      expdone
	VMOVUPD expvec<>+0(SB), X8   // log2(e)
	VMOVDQU expvec<>+208(SB), X9 // 0x3FF
	VMOVDQU expvec<>+224(SB), X10 // 0x7FF
	VPXOR   X11, X11, X11
	VMOVUPD expvec<>+192(SB), X12 // 2.0
	VMOVUPD expvec<>+176(SB), X13 // 1.0

exploop:
	VMOVUPD    (SI)(AX*1), X0
	VMULPD     X8, X0, X1
	VCVTPD2DQX X1, X2      // k, in dwords 0 and 1
	VPADDD     X9, X2, X3  // k + 0x3FF
	VPCMPGTD   X11, X3, X4 // k + 0x3FF > 0
	VPCMPGTD   X3, X10, X5 // 0x7FF > k + 0x3FF
	VPAND      X5, X4, X4
	VMOVMSKPS  X4, BX
	ANDL       $3, BX
	CMPL       BX, $3
	JNE        expdone
	VCVTDQ2PD  X2, X1
	VFNMADD231PD expvec<>+16(SB), X1, X0
	VFNMADD231PD expvec<>+32(SB), X1, X0
	VMULPD     expvec<>+48(SB), X0, X0
	VMOVUPD    expvec<>+64(SB), X1
	VFMADD213PD expvec<>+80(SB), X0, X1
	VFMADD213PD expvec<>+96(SB), X0, X1
	VFMADD213PD expvec<>+112(SB), X0, X1
	VFMADD213PD expvec<>+128(SB), X0, X1
	VFMADD213PD expvec<>+144(SB), X0, X1
	VFMADD213PD expvec<>+160(SB), X0, X1
	VFMADD213PD X13, X0, X1
	VMULPD     X1, X0, X0
	VADDPD     X12, X0, X1
	VMULPD     X1, X0, X0
	VADDPD     X12, X0, X1
	VMULPD     X1, X0, X0
	VADDPD     X12, X0, X1
	VMULPD     X1, X0, X0
	VADDPD     X12, X0, X1
	VFMADD213PD X13, X1, X0
	VPSHUFD    $0x50, X3, X3 // each lane's biased exponent into its low dword
	VPSLLQ     $52, X3, X3   // 2^k
	VMULPD     X3, X0, X0
	VMOVUPD    X0, (DI)(AX*1)
	ADDQ       $16, AX
	DECQ       CX
	JNZ        exploop

expdone:
	SHRQ $3, AX
	MOVQ AX, ret+48(FP)
	RET

DATA logvec<>+0(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA logvec<>+8(SB)/8, $0x000FFFFFFFFFFFFF
DATA logvec<>+16(SB)/8, $0.5
DATA logvec<>+24(SB)/8, $0.5
DATA logvec<>+32(SB)/8, $7.07106781186547524401e-01 // sqrt(2)/2
DATA logvec<>+40(SB)/8, $7.07106781186547524401e-01
DATA logvec<>+48(SB)/8, $1.0
DATA logvec<>+56(SB)/8, $1.0
DATA logvec<>+64(SB)/8, $2.0
DATA logvec<>+72(SB)/8, $2.0
DATA logvec<>+80(SB)/8, $1.479819860511658591e-01 // L7
DATA logvec<>+88(SB)/8, $1.479819860511658591e-01
DATA logvec<>+96(SB)/8, $1.818357216161805012e-01 // L5
DATA logvec<>+104(SB)/8, $1.818357216161805012e-01
DATA logvec<>+112(SB)/8, $2.857142874366239149e-01 // L3
DATA logvec<>+120(SB)/8, $2.857142874366239149e-01
DATA logvec<>+128(SB)/8, $6.666666666666735130e-01 // L1
DATA logvec<>+136(SB)/8, $6.666666666666735130e-01
DATA logvec<>+144(SB)/8, $1.531383769920937332e-01 // L6
DATA logvec<>+152(SB)/8, $1.531383769920937332e-01
DATA logvec<>+160(SB)/8, $2.222219843214978396e-01 // L4
DATA logvec<>+168(SB)/8, $2.222219843214978396e-01
DATA logvec<>+176(SB)/8, $3.999999999940941908e-01 // L2
DATA logvec<>+184(SB)/8, $3.999999999940941908e-01
DATA logvec<>+192(SB)/8, $6.93147180369123816490e-01 // Ln2Hi
DATA logvec<>+200(SB)/8, $6.93147180369123816490e-01
DATA logvec<>+208(SB)/8, $1.90821492927058770002e-10 // Ln2Lo
DATA logvec<>+216(SB)/8, $1.90821492927058770002e-10
DATA logvec<>+224(SB)/4, $0x3FE // the exponent bias less one, one per dword
DATA logvec<>+228(SB)/4, $0x3FE
DATA logvec<>+232(SB)/4, $0x3FE
DATA logvec<>+236(SB)/4, $0x3FE
DATA logvec<>+240(SB)/8, $0x7FF0000000000000 // +Inf
DATA logvec<>+248(SB)/8, $0x7FF0000000000000
GLOBL logvec<>(SB), RODATA, $256

// func logPairs(dst, src []float64) int
//
// math.Log (math/log_amd64.s, which has one path on amd64) in SSE2, two
// lanes per instruction and each lane the scalar steps in their order:
// f1 and k from x's bits, the f1 ≤ √2/2 adjustment by a compare mask,
// s = f/(2+f), the two Horner sums, and k·Ln2Hi − ((hfsq − (s·(hfsq+R) +
// k·Ln2Lo)) − f), none of it fused. It works through the len(src)&^1
// elements a pair at a time and stops at the first pair with a lane
// outside (0, +Inf), the only inputs math.Log answers by a special case.
// It returns the number of elements written. dst must hold as many as
// src. The constant operands rely on the linker aligning the 256-byte
// table to 32 bytes, as it aligns every symbol of 32 bytes or more.
TEXT ·logPairs(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	SHRQ   $1, CX
	XORQ   AX, AX
	TESTQ  CX, CX
	JZ     logdone
	MOVUPD logvec<>+240(SB), X8 // +Inf
	XORPD  X9, X9
	MOVUPD logvec<>+0(SB), X10  // mantissa mask
	MOVUPD logvec<>+16(SB), X11 // 0.5
	MOVUPD logvec<>+48(SB), X12 // 1.0
	MOVUPD logvec<>+32(SB), X13 // sqrt(2)/2
	MOVOU  logvec<>+224(SB), X14 // 0x3FE

logloop:
	MOVUPD   (SI)(AX*1), X0
	MOVAPD   X9, X1
	CMPPD    X0, X1, $1 // 0 < x
	MOVAPD   X0, X2
	CMPPD    X8, X2, $1 // x < +Inf
	ANDPD    X2, X1
	MOVMSKPD X1, BX
	CMPL     BX, $3
	JNE      logdone
	// f1, k := frexp(x)
	MOVAPD   X0, X2
	ANDPD    X10, X2
	ORPD     X11, X2   // x2= f1
	PSRLQ    $52, X0
	PSHUFL   $0x08, X0, X0 // each lane's biased exponent into dwords 0 and 1
	PSUBL    X14, X0
	CVTPL2PD X0, X1    // x1= k
	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }
	MOVAPD   X13, X0
	CMPPD    X2, X0, $5 // cmpnlt
	MOVAPD   X12, X3
	ANDPD    X0, X3
	SUBPD    X3, X1
	ADDPD    X12, X3
	MULPD    X3, X2
	// f := f1 - 1
	SUBPD    X12, X2   // x1= k, x2= f
	// s := f / (2 + f)
	MOVUPD   logvec<>+64(SB), X0
	ADDPD    X2, X0
	MOVAPD   X2, X3
	DIVPD    X0, X3    // x3= s
	MOVAPD   X3, X4
	MULPD    X4, X4    // x4= s2
	MOVAPD   X4, X5
	MULPD    X5, X5    // x5= s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MOVUPD   logvec<>+80(SB), X6
	MULPD    X5, X6
	ADDPD    logvec<>+96(SB), X6
	MULPD    X5, X6
	ADDPD    logvec<>+112(SB), X6
	MULPD    X5, X6
	ADDPD    logvec<>+128(SB), X6
	MULPD    X6, X4    // x4= t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	MOVUPD   logvec<>+144(SB), X6
	MULPD    X5, X6
	ADDPD    logvec<>+160(SB), X6
	MULPD    X5, X6
	ADDPD    logvec<>+176(SB), X6
	MULPD    X6, X5    // x5= t2
	ADDPD    X5, X4    // x4= R
	// hfsq := 0.5 * f * f
	MOVAPD   X11, X0
	MULPD    X2, X0
	MULPD    X2, X0    // x0= hfsq
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	ADDPD    X0, X4
	MULPD    X4, X3
	MOVUPD   logvec<>+208(SB), X4
	MULPD    X1, X4
	ADDPD    X4, X3
	SUBPD    X3, X0
	SUBPD    X2, X0
	MULPD    logvec<>+192(SB), X1
	SUBPD    X0, X1
	MOVUPD   X1, (DI)(AX*1)
	ADDQ     $16, AX
	DECQ     CX
	JNZ      logloop

logdone:
	SHRQ $3, AX
	MOVQ AX, ret+48(FP)
	RET
