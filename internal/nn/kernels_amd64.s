//go:build !race

#include "go_asm.h"
#include "textflag.h"

// SSE2 versions of the Go kernels in kernels.go. Each packed instruction
// works on two elements whose results are independent sums, and applies
// to each lane exactly the operation the Go loop applies to that element,
// in the same order; an odd last element takes the scalar form of the same
// instructions. Operand order inside one IEEE multiply or add does not
// change its result, so every lane has the bits of the Go loop. Loop heads
// sit under PCALIGN $32, so what the linker places before them cannot move
// them across a fetch boundary.

// adamUpdate's steps, in packed (PD, two parameters) or scalar (SD, an
// odd last one) form. MOMENTS moves element AX's moments, leaving mj in X1
// and vj in X3; UPDATE takes X1 as the first moment, bias-corrected or
// not, and writes w and the cleared g.
#define MOMENTS(MOV, MUL, ADD) \
	MOV (SI)(AX*8), X0; \
	MOV (R8)(AX*8), X1; \
	MUL X9, X1; \
	MOVAPD X0, X2; \
	MUL X10, X2; \
	ADD X2, X1; \
	MOV X1, (R8)(AX*8); \
	MOV (R9)(AX*8), X3; \
	MUL X11, X3; \
	MOVAPD X0, X4; \
	MUL X12, X4; \
	MUL X0, X4; \
	ADD X4, X3; \
	MOV X3, (R9)(AX*8)

#define UPDATE(MOV, MUL, ADD, DIV, SQRT, SUB) \
	DIV X15, X3; \
	SQRT X3, X3; \
	ADD X13, X3; \
	MUL X8, X1; \
	DIV X3, X1; \
	MOV (DI)(AX*8), X5; \
	SUB X1, X5; \
	MOV X5, (DI)(AX*8); \
	MOV X7, (SI)(AX*8)

// accum4's and accum1's step at element AX, packed or scalar: the row's
// accumulators in X4, each term g·x formed in its own register and added
// in row order.
#define ACCUM4(MOV, MUL, ADD) \
	MOV (DI)(AX*8), X4; \
	MOV (R8)(AX*8), X5; \
	MUL X0, X5; \
	ADD X5, X4; \
	MOV (R9)(AX*8), X6; \
	MUL X1, X6; \
	ADD X6, X4; \
	MOV (R10)(AX*8), X7; \
	MUL X2, X7; \
	ADD X7, X4; \
	MOV (R11)(AX*8), X8; \
	MUL X3, X8; \
	ADD X8, X4; \
	MOV X4, (DI)(AX*8)

#define ACCUM1(MOV, MUL, ADD) \
	MOV (DI)(AX*8), X4; \
	MOV (R8)(AX*8), X5; \
	MUL X0, X5; \
	ADD X5, X4; \
	MOV X4, (DI)(AX*8)

// affine4's steps. XPAIRS loads elements i and i+1 of x's four rows (R11,
// R11+R14, R11+2·R14, R12) and pairs them by row: X8 = (x0[i], x1[i]),
// X9 = (x2[i], x3[i]), X10 and X11 the same at i+1. XLAST pairs element i
// alone, the odd last one, into X8 and X9.
#define XPAIRS \
	MOVUPD (R11), X8; \
	MOVAPD X8, X10; \
	MOVUPD (R11)(R14*1), X12; \
	UNPCKLPD X12, X8; \
	UNPCKHPD X12, X10; \
	MOVUPD (R11)(R14*2), X9; \
	MOVAPD X9, X11; \
	MOVUPD (R12), X13; \
	UNPCKLPD X13, X9; \
	UNPCKHPD X13, X11

#define XLAST \
	MOVSD (R11), X8; \
	MOVHPD (R11)(R14*1), X8; \
	MOVSD (R11)(R14*2), X9; \
	MOVHPD (R12), X9

// BIAS starts output off/8 of the block, in all four rows, at b[o] (R15).
#define BIAS(off, acc01, acc23) \
	MOVSD off(R15), acc01; \
	UNPCKLPD acc01, acc01; \
	MOVAPD acc01, acc23

// TERMS2 adds one output's terms i and i+1 to its sums in rows 0–1
// (acc01) and 2–3 (acc23); W addresses the weights w[o][i], w[o][i+1].
#define TERMS2(W, acc01, acc23) \
	MOVUPD W, X12; \
	MOVAPD X12, X13; \
	UNPCKLPD X12, X12; \
	UNPCKHPD X13, X13; \
	MOVAPD X12, X14; \
	MULPD X8, X14; \
	ADDPD X14, acc01; \
	MULPD X9, X12; \
	ADDPD X12, acc23; \
	MOVAPD X13, X14; \
	MULPD X10, X14; \
	ADDPD X14, acc01; \
	MULPD X11, X13; \
	ADDPD X13, acc23

// TERM1 adds the term of the odd last element i; W addresses w[o][i].
#define TERM1(W, acc01, acc23) \
	MOVSD W, X12; \
	UNPCKLPD X12, X12; \
	MOVAPD X12, X14; \
	MULPD X8, X14; \
	ADDPD X14, acc01; \
	MULPD X9, X12; \
	ADDPD X12, acc23

// STORE writes output off/8 of the block to y's four rows (DI, DI+SI,
// DI+2·SI, DX).
#define STORE(acc01, acc23, off) \
	MOVSD acc01, off(DI); \
	MOVHPD acc01, off(DI)(SI*1); \
	MOVSD acc23, off(DI)(SI*2); \
	MOVHPD acc23, off(DX)

// func adamUpdate(w, g, m, v []float64, k *adamCoef)
TEXT ·adamUpdate(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), CX
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), DX
	MOVSD adamCoef_lr(DX), X8
	UNPCKLPD X8, X8
	MOVSD adamCoef_beta1(DX), X9
	UNPCKLPD X9, X9
	MOVSD adamCoef_ob1(DX), X10
	UNPCKLPD X10, X10
	MOVSD adamCoef_beta2(DX), X11
	UNPCKLPD X11, X11
	MOVSD adamCoef_ob2(DX), X12
	UNPCKLPD X12, X12
	MOVSD adamCoef_eps(DX), X13
	UNPCKLPD X13, X13
	MOVSD adamCoef_c1(DX), X14
	UNPCKLPD X14, X14
	MOVSD adamCoef_c2(DX), X15
	UNPCKLPD X15, X15
	MOVBLZX adamCoef_divC1(DX), DX
	XORPS X7, X7
	MOVQ CX, BX
	ANDQ $-2, BX
	XORQ AX, AX
	TESTQ DX, DX
	JZ   nodiv

	// mj = β1·m + (1−β1)·g; vj = β2·v + ((1−β2)·g)·g;
	// w -= (lr·(mj/c1)) / (√(vj/c2) + ε); g = 0.
	CMPQ AX, BX
	JGE  divtail
	PCALIGN $32
divloop:
	MOMENTS(MOVUPD, MULPD, ADDPD)
	DIVPD X14, X1
	UPDATE(MOVUPD, MULPD, ADDPD, DIVPD, SQRTPD, SUBPD)
	ADDQ $2, AX
	CMPQ AX, BX
	JLT  divloop

divtail:
	CMPQ AX, CX
	JGE  done
	MOMENTS(MOVSD, MULSD, ADDSD)
	DIVSD X14, X1
	UPDATE(MOVSD, MULSD, ADDSD, DIVSD, SQRTSD, SUBSD)
	RET

	// The same without the division by c1.
nodiv:
	CMPQ AX, BX
	JGE  nodivtail
	PCALIGN $32
nodivloop:
	MOMENTS(MOVUPD, MULPD, ADDPD)
	UPDATE(MOVUPD, MULPD, ADDPD, DIVPD, SQRTPD, SUBPD)
	ADDQ $2, AX
	CMPQ AX, BX
	JLT  nodivloop

nodivtail:
	CMPQ AX, CX
	JGE  done
	MOMENTS(MOVSD, MULSD, ADDSD)
	UPDATE(MOVSD, MULSD, ADDSD, DIVSD, SQRTSD, SUBSD)

done:
	RET

// func accum4(acc, x0, x1, x2, x3 []float64, g0, g1, g2, g3 float64)
TEXT ·accum4(SB), NOSPLIT, $0-152
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ x0_base+24(FP), R8
	MOVQ x1_base+48(FP), R9
	MOVQ x2_base+72(FP), R10
	MOVQ x3_base+96(FP), R11
	MOVSD g0+120(FP), X0
	UNPCKLPD X0, X0
	MOVSD g1+128(FP), X1
	UNPCKLPD X1, X1
	MOVSD g2+136(FP), X2
	UNPCKLPD X2, X2
	MOVSD g3+144(FP), X3
	UNPCKLPD X3, X3
	MOVQ CX, BX
	ANDQ $-2, BX
	XORQ AX, AX
	CMPQ AX, BX
	JGE  acc4tail

	// a = (((a + g0·x0) + g1·x1) + g2·x2) + g3·x3, two elements at a time.
	PCALIGN $32
acc4loop:
	ACCUM4(MOVUPD, MULPD, ADDPD)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    acc4loop

acc4tail:
	CMPQ  AX, CX
	JGE   acc4done
	ACCUM4(MOVSD, MULSD, ADDSD)

acc4done:
	RET

// func accum1(acc, x []float64, c float64)
TEXT ·accum1(SB), NOSPLIT, $0-56
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ x_base+24(FP), R8
	MOVSD c+48(FP), X0
	UNPCKLPD X0, X0
	MOVQ CX, BX
	ANDQ $-2, BX
	XORQ AX, AX
	CMPQ AX, BX
	JGE  acc1tail

	// a += c·x, two elements at a time.
	PCALIGN $32
acc1loop:
	ACCUM1(MOVUPD, MULPD, ADDPD)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    acc1loop

acc1tail:
	CMPQ  AX, CX
	JGE   acc1done
	ACCUM1(MOVSD, MULSD, ADDSD)

acc1done:
	RET

// func affine4(y, w, b, x []float64)
TEXT ·affine4(SB), NOSPLIT, $0-96
	MOVQ y_base+0(FP), DI
	MOVQ w_base+24(FP), R8
	MOVQ b_base+48(FP), R15
	MOVQ b_len+56(FP), CX
	MOVQ x_base+72(FP), R13
	MOVQ x_len+80(FP), R14
	MOVQ R14, BX
	SHRQ $3, BX      // BX = in/2, the element pairs of a row
	SHLQ $1, R14     // R14 = 4·in·2 = in·8, the bytes of a row of w or x
	MOVQ CX, SI
	SHLQ $3, SI      // SI = the bytes of a row of y
	LEAQ (DI)(SI*2), DX
	ADDQ SI, DX      // DX = y's row 3

	// Four outputs per pass over x's four rows. X0 holds output o of
	// rows 0 and 1, X1 of rows 2 and 3, X2 and X3 output o+1, and so on;
	// each lane is one row's sum b[o] + w[o][0]·x[0] + w[o][1]·x[1] + …,
	// in index order. R9/R10 walk weight rows 0 and 3 of the four (rows 1
	// and 2 are R14 and 2·R14 past R9), R11/R12 x's rows 0 and 3.
block4:
	CMPQ CX, $4
	JLT  single
	MOVQ R8, R9
	LEAQ (R8)(R14*2), R10
	ADDQ R14, R10
	MOVQ R13, R11
	LEAQ (R13)(R14*2), R12
	ADDQ R14, R12
	BIAS(0, X0, X1)
	BIAS(8, X2, X3)
	BIAS(16, X4, X5)
	BIAS(24, X6, X7)
	MOVQ BX, AX
	TESTQ AX, AX
	JZ   b4tail
	PCALIGN $32
b4loop:
	XPAIRS
	TERMS2((R9), X0, X1)
	TERMS2((R9)(R14*1), X2, X3)
	TERMS2((R9)(R14*2), X4, X5)
	TERMS2((R10), X6, X7)
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	DECQ AX
	JNZ  b4loop

b4tail:
	TESTQ $8, R14
	JZ    b4store
	XLAST
	TERM1((R9), X0, X1)
	TERM1((R9)(R14*1), X2, X3)
	TERM1((R9)(R14*2), X4, X5)
	TERM1((R10), X6, X7)

b4store:
	STORE(X0, X1, 0)
	STORE(X2, X3, 8)
	STORE(X4, X5, 16)
	STORE(X6, X7, 24)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, R15
	LEAQ (R8)(R14*4), R8
	SUBQ $4, CX
	JMP  block4

	// The last one to three outputs, one per pass.
single:
	TESTQ CX, CX
	JZ    affdone
	MOVQ  R8, R9
	MOVQ  R13, R11
	LEAQ  (R13)(R14*2), R12
	ADDQ  R14, R12
	BIAS(0, X0, X1)
	MOVQ  BX, AX
	TESTQ AX, AX
	JZ    s1tail
	PCALIGN $32
s1loop:
	XPAIRS
	TERMS2((R9), X0, X1)
	ADDQ $16, R9
	ADDQ $16, R11
	ADDQ $16, R12
	DECQ AX
	JNZ  s1loop

s1tail:
	TESTQ $8, R14
	JZ    s1store
	XLAST
	TERM1((R9), X0, X1)

s1store:
	STORE(X0, X1, 0)
	ADDQ $8, DI
	ADDQ $8, DX
	ADDQ $8, R15
	ADDQ R14, R8
	DECQ CX
	JMP  single

affdone:
	RET
