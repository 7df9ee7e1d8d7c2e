//go:build amd64 && !race

#include "textflag.h"

// SSE2 kernels behind kernels_amd64.go. Each XMM lane carries one output
// element: MULPS forms the same separately rounded products as the Go
// kernels, and ADDPS adds them into each output in the Go kernels' order.
// SSE2 has no fused multiply-add, so no product skips its rounding. X15
// and R14 are left alone (Go's internal ABI gives them fixed roles).

// AXPY_ROW adds X0 (alpha in every lane) times CX floats at SI to the CX
// floats at DI, sixteen, then four, then one at a time. It advances SI
// and DI past the row and clobbers X1-X8 and CX.
#define AXPY_ROW \
axpy16: \
	CMPQ   CX, $16; \
	JLT    axpy4; \
	MOVUPS (SI), X1; \
	MOVUPS 16(SI), X2; \
	MOVUPS 32(SI), X3; \
	MOVUPS 48(SI), X4; \
	MULPS  X0, X1; \
	MULPS  X0, X2; \
	MULPS  X0, X3; \
	MULPS  X0, X4; \
	MOVUPS (DI), X5; \
	MOVUPS 16(DI), X6; \
	MOVUPS 32(DI), X7; \
	MOVUPS 48(DI), X8; \
	ADDPS  X1, X5; \
	ADDPS  X2, X6; \
	ADDPS  X3, X7; \
	ADDPS  X4, X8; \
	MOVUPS X5, (DI); \
	MOVUPS X6, 16(DI); \
	MOVUPS X7, 32(DI); \
	MOVUPS X8, 48(DI); \
	ADDQ   $64, SI; \
	ADDQ   $64, DI; \
	SUBQ   $16, CX; \
	JMP    axpy16; \
axpy4: \
	CMPQ   CX, $4; \
	JLT    axpy1; \
	MOVUPS (SI), X1; \
	MULPS  X0, X1; \
	MOVUPS (DI), X5; \
	ADDPS  X1, X5; \
	MOVUPS X5, (DI); \
	ADDQ   $16, SI; \
	ADDQ   $16, DI; \
	SUBQ   $4, CX; \
	JMP    axpy4; \
axpy1: \
	TESTQ  CX, CX; \
	JEQ    axpyDone; \
	MOVSS  (SI), X1; \
	MULSS  X0, X1; \
	MOVSS  (DI), X5; \
	ADDSS  X1, X5; \
	MOVSS  X5, (DI); \
	ADDQ   $4, SI; \
	ADDQ   $4, DI; \
	DECQ   CX; \
	JMP    axpy1; \
axpyDone:

// func axpySSE(d []float32, alpha float32, s []float32)
TEXT ·axpySSE(SB), NOSPLIT, $0-56
	MOVQ   d_base+0(FP), DI
	MOVQ   d_len+8(FP), CX
	MOVSS  alpha+24(FP), X0
	MOVQ   s_base+32(FP), SI
	SHUFPS $0x00, X0, X0
	AXPY_ROW
	RET

// func outerAccumSSE(dst, a, b []float32, scale float32)
TEXT ·outerAccumSSE(SB), NOSPLIT, $0-76
	MOVQ  dst_base+0(FP), DI
	MOVQ  a_base+24(FP), BX
	MOVQ  a_len+32(FP), DX
	MOVQ  b_base+48(FP), R8
	MOVQ  b_len+56(FP), R9
	MOVSS scale+72(FP), X9

outerRow:
	TESTQ  DX, DX
	JEQ    outerDone
	MOVSS  (BX), X0
	MULSS  X9, X0
	SHUFPS $0x00, X0, X0
	MOVQ   R8, SI
	MOVQ   R9, CX
	AXPY_ROW
	ADDQ   $4, BX
	DECQ   DX
	JMP    outerRow

outerDone:
	RET

// func tanhGradSSE(dst, g, y []float32)
TEXT ·tanhGradSSE(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   g_base+24(FP), SI
	MOVQ   y_base+48(FP), DX
	MOVL   $0x3f800000, AX
	MOVL   AX, X7
	SHUFPS $0x00, X7, X7

tanhGrad4:
	CMPQ   CX, $4
	JLT    tanhGrad1
	MOVUPS (DX), X1
	MULPS  X1, X1
	MOVAPS X7, X2
	SUBPS  X1, X2
	MOVUPS (SI), X3
	MULPS  X2, X3
	MOVUPS X3, (DI)
	ADDQ   $16, DX
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    tanhGrad4

tanhGrad1:
	TESTQ  CX, CX
	JEQ    tanhGradDone
	MOVSS  (DX), X1
	MULSS  X1, X1
	MOVAPS X7, X2
	SUBSS  X1, X2
	MOVSS  (SI), X3
	MULSS  X2, X3
	MOVSS  X3, (DI)
	ADDQ   $4, DX
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tanhGrad1

tanhGradDone:
	RET

// MATTVEC_ROWS_INIT starts a column block of matTVecSSE at row 0: R9
// walks the block's row starts (stride R8 bytes), R10 the x values and
// R11 counts the rows left. A block's lane for column c adds
// m[r][c]*x[r] for r = 0, 1, 2, ... in turn.
#define MATTVEC_ROWS_INIT \
	MOVQ SI, R9; \
	MOVQ BX, R10; \
	MOVQ DX, R11

// func matTVecSSE(dst, m, x []float32, stride int)
TEXT ·matTVecSSE(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ m_base+24(FP), SI
	MOVQ x_base+48(FP), BX
	MOVQ x_len+56(FP), DX
	MOVQ stride+72(FP), R8
	SHLQ $2, R8

	// Sixteen columns at a time, in four accumulators.
tcols16:
	CMPQ  CX, $16
	JLT   tcols8
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MATTVEC_ROWS_INIT

trows16:
	TESTQ  R11, R11
	JEQ    tstore16
	MOVSS  (R10), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R9), X5
	MOVUPS 16(R9), X6
	MOVUPS 32(R9), X7
	MOVUPS 48(R9), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   R8, R9
	ADDQ   $4, R10
	DECQ   R11
	JMP    trows16

tstore16:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, CX
	JMP    tcols16

	// Eight columns, in two accumulators.
tcols8:
	CMPQ  CX, $8
	JLT   tcols4
	XORPS X0, X0
	XORPS X1, X1
	MATTVEC_ROWS_INIT

trows8:
	TESTQ  R11, R11
	JEQ    tstore8
	MOVSS  (R10), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R9), X5
	MOVUPS 16(R9), X6
	MULPS  X4, X5
	MULPS  X4, X6
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDQ   R8, R9
	ADDQ   $4, R10
	DECQ   R11
	JMP    trows8

tstore8:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, CX

	// Four columns, in one accumulator.
tcols4:
	CMPQ  CX, $4
	JLT   tdone
	XORPS X0, X0
	MATTVEC_ROWS_INIT

trows4:
	TESTQ  R11, R11
	JEQ    tstore4
	MOVSS  (R10), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R9), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	ADDQ   R8, R9
	ADDQ   $4, R10
	DECQ   R11
	JMP    trows4

tstore4:
	MOVUPS X0, (DI)

tdone:
	RET

// TRANSPOSE_ADD takes the products of four rows with four columns, one
// row per register (p0..p3), transposes them with t0 and t1 as scratch,
// and adds column 0, then 1, 2 and 3 into acc, whose lane k is row k's
// sum. It clobbers p0..p3, t0 and t1.
#define TRANSPOSE_ADD(p0, p1, p2, p3, t0, t1, acc) \
	MOVAPS   p0, t0; \
	UNPCKLPS p1, t0; \
	UNPCKHPS p1, p0; \
	MOVAPS   p2, t1; \
	UNPCKLPS p3, t1; \
	UNPCKHPS p3, p2; \
	MOVAPS   t0, p1; \
	MOVLHPS  t1, p1; \
	MOVHLPS  t0, t1; \
	MOVAPS   p0, p3; \
	MOVLHPS  p2, p3; \
	MOVHLPS  p0, p2; \
	ADDPS    p1, acc; \
	ADDPS    t1, acc; \
	ADDPS    p3, acc; \
	ADDPS    p2, acc

// LOAD_MUL4 loads four floats from each of the four rows starting at row
// (stride R8 bytes, three strides in R12) into p0..p3 and multiplies
// them lane by lane by x.
#define LOAD_MUL4(row, p0, p1, p2, p3, x) \
	MOVUPS (row), p0; \
	MOVUPS (row)(R8*1), p1; \
	MOVUPS (row)(R8*2), p2; \
	MOVUPS (row)(R12*1), p3; \
	MULPS  x, p0; \
	MULPS  x, p1; \
	MULPS  x, p2; \
	MULPS  x, p3

// func matVecSSE(dst, m, x []float32, stride int)
TEXT ·matVecSSE(SB), NOSPLIT, $0-80
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  m_base+24(FP), SI
	MOVQ  x_base+48(FP), BX
	MOVQ  x_len+56(FP), DX
	MOVQ  stride+72(FP), R8
	TESTQ DX, DX
	JEQ   vdone
	SHLQ  $2, R8
	LEAQ  (R8)(R8*2), R12

	// Eight rows at a time, in two accumulators.
vrows8:
	CMPQ  CX, $8
	JLT   vrows4
	XORPS X0, X0
	XORPS X1, X1
	MOVQ  SI, R9
	LEAQ  (SI)(R8*4), R13
	MOVQ  BX, R10
	MOVQ  DX, R11

vcols8:
	MOVUPS (R10), X14
	LOAD_MUL4(R9, X2, X3, X4, X5, X14)
	LOAD_MUL4(R13, X8, X9, X10, X11, X14)
	TRANSPOSE_ADD(X2, X3, X4, X5, X6, X7, X0)
	TRANSPOSE_ADD(X8, X9, X10, X11, X12, X13, X1)
	ADDQ $16, R9
	ADDQ $16, R13
	ADDQ $16, R10
	SUBQ $4, R11
	JNE  vcols8

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	LEAQ   (SI)(R8*8), SI
	SUBQ   $8, CX
	JMP    vrows8

	// Four rows, in one accumulator.
vrows4:
	CMPQ  CX, $4
	JLT   vdone
	XORPS X0, X0
	MOVQ  SI, R9
	MOVQ  BX, R10
	MOVQ  DX, R11

vcols4:
	MOVUPS (R10), X14
	LOAD_MUL4(R9, X2, X3, X4, X5, X14)
	TRANSPOSE_ADD(X2, X3, X4, X5, X6, X7, X0)
	ADDQ $16, R9
	ADDQ $16, R10
	SUBQ $4, R11
	JNE  vcols4

	MOVUPS X0, (DI)

vdone:
	RET

// The constants of tanhSSE, each twice for the two float64 lanes; see
// tanh.go for what each one is.
#define K2(off, bits) DATA tanhK<>+off(SB)/8, $bits; DATA tanhK<>+(off+8)(SB)/8, $bits

K2(0, 0x7fffffffffffffff)   // |·| mask
K2(16, 0x3fb0000000000000)  // tanhPolyMax
K2(32, 0x4022333333333333)  // tanhOneMin
K2(48, 0x3f9664f4882c10fa)  // tanhC9
K2(64, 0xbfaba1ba1ba1ba1c)  // tanhC7
K2(80, 0x3fc1111111111111)  // tanhC5
K2(96, 0xbfd5555555555555)  // tanhC3
K2(112, 0xc000000000000000) // -2
K2(128, 0x40471547652b82fe) // expInvStep
K2(144, 0x4338000000000000) // expShift
K2(160, 0x3f962e42fee00000) // expStepHi
K2(176, 0x3d9a39ef35793c76) // expStepLo
K2(192, 0x3f81111111111111) // expQ5
K2(208, 0x3fa5555555555555) // expQ4
K2(224, 0x3fc5555555555555) // expQ3
K2(240, 0x3fe0000000000000) // expQ2
K2(256, 0x3ff0000000000000) // 1
K2(272, 0x3feffffffffe0000) // tanhGuardLo
K2(288, 0x3ff0000000010000) // tanhGuardHi
K2(304, 0xffffffffffffffe0) // ^31
GLOBL tanhK<>(SB), RODATA|NOPTR, $320

// TANH_POLY loads two float32s at src as float64s and leaves in p the
// polynomial result where |x| < 1/16, 1 where 9.1 ≤ |x|, 0 elsewhere,
// each with x's sign, and in s the exp branch's argument: min(|x|, 9.1)
// where neither holds and 0 where one does, so that lane's exp branch
// gives (1 − 1)/(1 + 1) = 0 and p alone is t. A NaN |x| fails both
// compares and passes MINPD (which returns its source operand), so its t
// is NaN. Clobbers a, m and sg.
#define TANH_POLY(src, a, p, s, m, sg) \
	MOVSD    src, a; \
	CVTPS2PD a, a; \
	MOVAPD   a, sg; \
	ANDPD    tanhK<>+0(SB), a; \
	XORPD    a, sg; \
	MOVAPD   a, s; \
	MULPD    a, s; \
	MOVAPD   tanhK<>+48(SB), p; \
	MULPD    s, p; \
	ADDPD    tanhK<>+64(SB), p; \
	MULPD    s, p; \
	ADDPD    tanhK<>+80(SB), p; \
	MULPD    s, p; \
	ADDPD    tanhK<>+96(SB), p; \
	MULPD    a, s; \
	MULPD    s, p; \
	ADDPD    a, p; \
	MOVAPD   tanhK<>+32(SB), m; \
	CMPPD    a, m, $2; \
	MOVAPD   a, s; \
	CMPPD    tanhK<>+16(SB), s, $1; \
	ANDPD    s, p; \
	ORPD     m, s; \
	ANDPD    tanhK<>+256(SB), m; \
	ORPD     m, p; \
	ORPD     sg, p; \
	MOVAPD   tanhK<>+32(SB), m; \
	MINPD    a, m; \
	ANDNPD   m, s

// TANH_REDUCE turns the argument a in y into r = y − n·ln2/32, y = −2a,
// and leaves n (as an int64 per lane) in k. Clobbers nf and t.
#define TANH_REDUCE(y, k, nf, t) \
	MULPD  tanhK<>+112(SB), y; \
	MOVAPD tanhK<>+128(SB), k; \
	MULPD  y, k; \
	ADDPD  tanhK<>+144(SB), k; \
	MOVAPD k, nf; \
	SUBPD  tanhK<>+144(SB), nf; \
	PSUBQ  tanhK<>+144(SB), k; \
	MOVAPD tanhK<>+160(SB), t; \
	MULPD  nf, t; \
	SUBPD  t, y; \
	MULPD  tanhK<>+176(SB), nf; \
	SUBPD  nf, y

// TANH_Q leaves e^r's degree-5 polynomial in q, r in y.
#define TANH_Q(y, q) \
	MOVAPD tanhK<>+192(SB), q; \
	MULPD  y, q; \
	ADDPD  tanhK<>+208(SB), q; \
	MULPD  y, q; \
	ADDPD  tanhK<>+224(SB), q; \
	MULPD  y, q; \
	ADDPD  tanhK<>+240(SB), q; \
	MULPD  y, q; \
	ADDPD  tanhK<>+256(SB), q; \
	MULPD  y, q; \
	ADDPD  tanhK<>+256(SB), q

// TANH_U computes e = 2^(n/32)·q from n in k and q, then leaves
// (1 − e)/(1 + e) in y. Clobbers k, t, j0 and j1.
#define TANH_U(y, k, q, t, j0, j1) \
	MOVQ   k, j0; \
	PSHUFD $0xee, k, t; \
	MOVQ   t, j1; \
	ANDQ   $31, j0; \
	ANDQ   $31, j1; \
	MOVSD  (R10)(j0*8), t; \
	MOVHPD (R10)(j1*8), t; \
	PAND   tanhK<>+304(SB), k; \
	PSLLQ  $47, k; \
	PADDQ  k, t; \
	MULPD  q, t; \
	MOVAPD tanhK<>+256(SB), y; \
	SUBPD  t, y; \
	ADDPD  tanhK<>+256(SB), t; \
	DIVPD  t, y

// TANH_GUARD rounds t·(1 − 2⁻³⁶) into t and t·(1 + 2⁻³⁶) into hi, as
// float32s in the low half.
#define TANH_GUARD(t, hi) \
	MOVAPD   t, hi; \
	MULPD    tanhK<>+272(SB), t; \
	MULPD    tanhK<>+288(SB), hi; \
	CVTPD2PS t, t; \
	CVTPD2PS hi, hi

// func tanhSSE(dst, x []float32) uint64
//
// Four elements per pass, as two independent float64 pairs interleaved
// stage by stage, through tanhApprox's operations in its order. Each
// pair's t is p | u: TANH_POLY's p with TANH_U's u, one of which is 0 in
// every lane. CVTPS2PD writes its whole register, so no pass waits on
// the one before it. Bit i of the result is set where the guard fails;
// there dst[i] keeps x[i] for the caller's slow path.
TEXT ·tanhSSE(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ x_base+24(FP), SI
	LEAQ ·expTable(SB), R10
	XORQ CX, CX
	XORQ R8, R8

tanhQuad:
	CMPQ     CX, DX
	JGE      tanhDone
	TANH_POLY((SI), X0, X1, X2, X3, X4)
	TANH_POLY(8(SI), X5, X6, X7, X8, X9)
	TANH_REDUCE(X2, X0, X3, X4)
	TANH_REDUCE(X7, X5, X8, X9)
	TANH_Q(X2, X3)
	TANH_Q(X7, X8)
	TANH_U(X2, X0, X3, X4, AX, BX)
	TANH_U(X7, X5, X8, X9, R11, R12)
	ORPD     X1, X2
	ORPD     X6, X7
	TANH_GUARD(X2, X1)
	TANH_GUARD(X7, X6)
	MOVLHPS  X7, X2              // the four float32s of t·(1 − 2⁻³⁶)
	MOVLHPS  X6, X1              // and of t·(1 + 2⁻³⁶)
	MOVAPS   X2, X10
	CMPPS    X1, X10, $4         // not equal, or unordered
	MOVMSKPS X10, AX
	MOVUPS   (SI), X11
	ANDPS    X10, X11
	ANDNPS   X2, X10
	ORPS     X11, X10
	MOVUPS   X10, (DI)
	SHLQ     CX, AX
	ORQ      AX, R8
	ADDQ     $4, CX
	ADDQ     $16, SI
	ADDQ     $16, DI
	JMP      tanhQuad

tanhDone:
	MOVQ R8, ret+48(FP)
	RET
