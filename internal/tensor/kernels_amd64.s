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

// TRANSPOSE4 transposes the 4 × 4 block whose rows are p0..p3, with t0
// and t1 as scratch, leaving its columns 0, 1, 2 and 3 in p1, t1, p3 and
// p2. It clobbers p0 and t0.
#define TRANSPOSE4(p0, p1, p2, p3, t0, t1) \
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
	MOVHLPS  p0, p2

// TRANSPOSE_ADD takes the products of four rows with four columns, one
// row per register (p0..p3), transposes them with t0 and t1 as scratch,
// and adds column 0, then 1, 2 and 3 into acc, whose lane k is row k's
// sum. It clobbers p0..p3, t0 and t1.
#define TRANSPOSE_ADD(p0, p1, p2, p3, t0, t1, acc) \
	TRANSPOSE4(p0, p1, p2, p3, t0, t1); \
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

// The batch kernels take one lane group: a group's vector holds one
// element of each of its four items, one item per lane (see batch.go),
// so every lane is an independent output and a product's scalar operand
// is broadcast with PSHUFD.

// ROW_QUAD adds, for the row of m at addr, its four columns' products
// with the group's column vectors in X8..X11 into acc, column by column.
// It clobbers X12..X14.
#define ROW_QUAD(addr, acc) \
	MOVUPS addr, X12; \
	PSHUFD $0x00, X12, X13; \
	MULPS  X8, X13; \
	ADDPS  X13, acc; \
	PSHUFD $0x55, X12, X14; \
	MULPS  X9, X14; \
	ADDPS  X14, acc; \
	PSHUFD $0xaa, X12, X13; \
	MULPS  X10, X13; \
	ADDPS  X13, acc; \
	PSHUFD $0xff, X12, X14; \
	MULPS  X11, X14; \
	ADDPS  X14, acc

// func matVecBatchSSE(y, m, x []float32, stride int)
//
// Eight rows per pass, one accumulator each: a row's four adds per four
// columns form a chain, and eight chains keep both add ports busy.
TEXT ·matVecBatchSSE(SB), NOSPLIT, $0-80
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), CX
	SHRQ  $2, CX
	MOVQ  m_base+24(FP), SI
	MOVQ  x_base+48(FP), BX
	MOVQ  x_len+56(FP), DX
	MOVQ  stride+72(FP), R8
	TESTQ DX, DX
	JEQ   bvdone
	SHLQ  $2, R8
	LEAQ  (R8)(R8*2), R12

bvrows8:
	CMPQ  CX, $8
	JLT   bvrows4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  SI, R9
	LEAQ  (SI)(R8*4), R13
	MOVQ  BX, R10
	MOVQ  DX, R11

bvcols8:
	MOVUPS (R10), X8
	MOVUPS 16(R10), X9
	MOVUPS 32(R10), X10
	MOVUPS 48(R10), X11
	ROW_QUAD((R9), X0)
	ROW_QUAD((R9)(R8*1), X1)
	ROW_QUAD((R9)(R8*2), X2)
	ROW_QUAD((R9)(R12*1), X3)
	ROW_QUAD((R13), X4)
	ROW_QUAD((R13)(R8*1), X5)
	ROW_QUAD((R13)(R8*2), X6)
	ROW_QUAD((R13)(R12*1), X7)
	ADDQ $16, R9
	ADDQ $16, R13
	ADDQ $64, R10
	SUBQ $16, R11
	JNE  bvcols8

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	LEAQ   (SI)(R8*8), SI
	SUBQ   $8, CX
	JMP    bvrows8

	// Four rows.
bvrows4:
	CMPQ  CX, $4
	JLT   bvdone
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R9
	MOVQ  BX, R10
	MOVQ  DX, R11

bvcols4:
	MOVUPS (R10), X8
	MOVUPS 16(R10), X9
	MOVUPS 32(R10), X10
	MOVUPS 48(R10), X11
	ROW_QUAD((R9), X0)
	ROW_QUAD((R9)(R8*1), X1)
	ROW_QUAD((R9)(R8*2), X2)
	ROW_QUAD((R9)(R12*1), X3)
	ADDQ $16, R9
	ADDQ $64, R10
	SUBQ $16, R11
	JNE  bvcols4

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)

bvdone:
	RET

// COL_QUAD adds the products of the four m values in w, one column
// each, with the group's dz vector in X8 into a0..a3. It clobbers X11
// and X12.
#define COL_QUAD(w, a0, a1, a2, a3) \
	PSHUFD $0x00, w, X11; \
	MULPS  X8, X11; \
	ADDPS  X11, a0; \
	PSHUFD $0x55, w, X12; \
	MULPS  X8, X12; \
	ADDPS  X12, a1; \
	PSHUFD $0xaa, w, X11; \
	MULPS  X8, X11; \
	ADDPS  X11, a2; \
	PSHUFD $0xff, w, X12; \
	MULPS  X8, X12; \
	ADDPS  X12, a3

// func matTVecBatchSSE(dx, m, dz []float32, stride int)
//
// Eight columns per pass, then four, one accumulator each, adding rows
// in ascending order.
TEXT ·matTVecBatchSSE(SB), NOSPLIT, $0-80
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	SHRQ $2, CX
	MOVQ m_base+24(FP), SI
	MOVQ dz_base+48(FP), BX
	MOVQ dz_len+56(FP), DX
	SHRQ $2, DX
	MOVQ stride+72(FP), R8
	SHLQ $2, R8

btcols8:
	CMPQ  CX, $8
	JLT   btcols4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  SI, R9
	MOVQ  BX, R10
	MOVQ  DX, R11

btrows8:
	MOVUPS (R10), X8
	MOVUPS (R9), X9
	MOVUPS 16(R9), X10
	COL_QUAD(X9, X0, X1, X2, X3)
	COL_QUAD(X10, X4, X5, X6, X7)
	ADDQ   R8, R9
	ADDQ   $16, R10
	DECQ   R11
	JNE    btrows8

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $32, SI
	SUBQ   $8, CX
	JMP    btcols8

	// Four columns.
btcols4:
	CMPQ  CX, $4
	JLT   btdone
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R9
	MOVQ  BX, R10
	MOVQ  DX, R11

btrows4:
	MOVUPS (R10), X8
	MOVUPS (R9), X9
	COL_QUAD(X9, X0, X1, X2, X3)
	ADDQ   R8, R9
	ADDQ   $16, R10
	DECQ   R11
	JNE    btrows4

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)

btdone:
	RET

// OUTER_LANES adds to X6, the sums of one row's four columns, the
// products of that row's dz value of item 0, 1, 2 and 3 in turn (from
// the vector at R10) with the item's four x values (X1, X5, X3, X2),
// stopping after the group's AX live items by jumping to done. It
// clobbers X7..X9.
#define OUTER_LANES(done) \
	MOVUPS (R10), X7; \
	PSHUFD $0x00, X7, X8; \
	MULPS  X1, X8; \
	ADDPS  X8, X6; \
	CMPQ   AX, $1; \
	JEQ    done; \
	PSHUFD $0x55, X7, X9; \
	MULPS  X5, X9; \
	ADDPS  X9, X6; \
	CMPQ   AX, $2; \
	JEQ    done; \
	PSHUFD $0xaa, X7, X8; \
	MULPS  X3, X8; \
	ADDPS  X8, X6; \
	CMPQ   AX, $3; \
	JEQ    done; \
	PSHUFD $0xff, X7, X9; \
	MULPS  X2, X9; \
	ADDPS  X9, X6

// OUTER8_LANE adds the products of one item's dz value (lane imm of X14)
// with its x values of eight columns (lo, hi) to X12 and X13. It
// clobbers X0 and X4.
#define OUTER8_LANE(imm, lo, hi) \
	PSHUFD imm, X14, X0; \
	MOVAPS X0, X4; \
	MULPS  lo, X0; \
	MULPS  hi, X4; \
	ADDPS  X0, X12; \
	ADDPS  X4, X13

// OUTER8_ROW adds one row's products of a full group to the sums of its
// eight columns in X12 and X13, item by item, stores them and moves to
// the next row.
#define OUTER8_ROW \
	MOVUPS (R10), X14; \
	OUTER8_LANE($0x00, X1, X5); \
	OUTER8_LANE($0x55, X9, X11); \
	OUTER8_LANE($0xaa, X3, X7); \
	OUTER8_LANE($0xff, X2, X6); \
	MOVUPS X12, (R9); \
	MOVUPS X13, 16(R9); \
	ADDQ   R8, R9; \
	ADDQ   $16, R10; \
	DECQ   R11

// func outerBatchSSE(gw, dz, x []float32, stride, lanes int, add bool)
//
// A full group takes eight columns per pass: their x vectors are
// transposed into two vectors per item, then every row's eight sums take
// the items in order, lanes holding columns. Rows are independent, so a
// row's chain of adds overlaps the next row's. A part-dead group, and a
// last block of four columns, take four columns per pass and test the
// live count and add per row.
TEXT ·outerBatchSSE(SB), NOSPLIT, $0-89
	MOVQ    gw_base+0(FP), SI
	MOVQ    dz_base+24(FP), BX
	MOVQ    dz_len+32(FP), DX
	SHRQ    $2, DX
	MOVQ    x_base+48(FP), DI
	MOVQ    x_len+56(FP), CX
	SHRQ    $4, CX
	MOVQ    stride+72(FP), R8
	SHLQ    $2, R8
	MOVQ    lanes+80(FP), AX
	MOVBQZX add+88(FP), R12
	CMPQ    AX, $4
	JNE     oblock4

oblock8:
	CMPQ   CX, $2
	JLT    oblock4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	TRANSPOSE4(X0, X1, X2, X3, X8, X9)
	TRANSPOSE4(X4, X5, X6, X7, X10, X11)
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R12, R12
	JNE    oadd8

ozero8:
	XORPS X12, X12
	XORPS X13, X13
	OUTER8_ROW
	JNE   ozero8
	JMP   onext8

oadd8:
	MOVUPS (R9), X12
	MOVUPS 16(R9), X13
	OUTER8_ROW
	JNE    oadd8

onext8:
	ADDQ $128, DI
	ADDQ $32, SI
	SUBQ $2, CX
	JMP  oblock8

oblock4:
	TESTQ  CX, CX
	JEQ    odone
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	TRANSPOSE4(X0, X1, X2, X3, X4, X5)
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11

orow4:
	XORPS  X6, X6
	TESTQ  R12, R12
	JEQ    oseeded4
	MOVUPS (R9), X6

oseeded4:
	OUTER_LANES(ostore4)

ostore4:
	MOVUPS X6, (R9)
	ADDQ   R8, R9
	ADDQ   $16, R10
	DECQ   R11
	JNE    orow4
	ADDQ   $64, DI
	ADDQ   $16, SI
	DECQ   CX
	JMP    oblock4

odone:
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

// func tanhSSE(dst, x []float32, n, stride int) uint64
//
// Four elements per pass, as two independent float64 pairs interleaved
// stage by stage, through tanhApprox's operations in its order. The
// second pair of a pass starts stride floats after the first, and a pass
// advances 2·stride floats: stride 2 reads x contiguously, stride 4 the
// first two lanes of consecutive lane-layout rows. Each pair's t is
// p | u: TANH_POLY's p with TANH_U's u, one of which is 0 in every lane.
// CVTPS2PD writes its whole register, so no pass waits on the one before
// it. Bit i of the result is set where the guard fails for the pass's
// element i; there dst keeps x for the caller's slow path.
TEXT ·tanhSSE(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ n+48(FP), DX
	MOVQ x_base+24(FP), SI
	MOVQ stride+56(FP), R13
	SHLQ $2, R13
	LEAQ ·expTable(SB), R10
	XORQ CX, CX
	XORQ R8, R8

tanhQuad:
	CMPQ     CX, DX
	JGE      tanhDone
	TANH_POLY((SI), X0, X1, X2, X3, X4)
	TANH_POLY((SI)(R13*1), X5, X6, X7, X8, X9)
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
	MOVSD    (SI), X11
	MOVHPS   (SI)(R13*1), X11
	ANDPS    X10, X11
	ANDNPS   X2, X10
	ORPS     X11, X10
	MOVSD    X10, (DI)
	MOVHPS   X10, (DI)(R13*1)
	SHLQ     CX, AX
	ORQ      AX, R8
	ADDQ     $4, CX
	LEAQ     (SI)(R13*2), SI
	LEAQ     (DI)(R13*2), DI
	JMP      tanhQuad

tanhDone:
	MOVQ R8, ret+64(FP)
	RET
