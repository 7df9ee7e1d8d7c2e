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
