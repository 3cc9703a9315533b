#include "textflag.h"

// AVX2 cross-moment kernel for the online engine's time-major ring
// (see crossmoment.go for the layout and the table it fills).
//
// One call fills the table's row pair (i, i+1) for columns
// i&^3 … stride−1, 16 columns at a time and then 4 at a time. Per ring
// row it broadcasts x_i and x_{i+1} and, for each 4-wide column vector
// v, adds x_i·v and x_{i+1}·v into that vector's two accumulators: one
// VMULPD and one VADDPD per element, never FMA. Each accumulator lane
// is one table entry, started at +0 and fed one rounded product per
// ring row in chronological order (seg0's rows, then seg1's), which is
// exactly crossMomentsGo's per-element order, so the kernels are
// bit-identical.

// func crossMomentsAVX2(tab, seg0, seg1 *float64, n0, n1, stride, i int)
//
// Register plan:
//	DI/R11  &tab[i*stride], &tab[(i+1)*stride]
//	SI/R8   seg0, seg1 (first rows); R9/R10 their row counts
//	DX      row stride in bytes (also the column end)
//	AX      byte offset of column i in a row
//	BX      byte offset of the current column block
//	R13/CX  row cursor and rows left in the current segment
//	R12     1 while seg1 is still to be read
//	Y0..Y3  row i accumulators, Y4..Y7 row i+1 accumulators
//	Y8/Y9   x_i, x_{i+1} broadcast; Y10..Y15 loads and products
TEXT ·crossMomentsAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), DI
	MOVQ seg0+8(FP), SI
	MOVQ seg1+16(FP), R8
	MOVQ n0+24(FP), R9
	MOVQ n1+32(FP), R10
	MOVQ stride+40(FP), DX
	MOVQ i+48(FP), AX
	SHLQ $3, DX
	MOVQ AX, BX
	ANDQ $-4, BX
	SHLQ $3, BX
	MOVQ AX, CX
	IMULQ DX, CX
	ADDQ CX, DI
	LEAQ (DI)(DX*1), R11
	SHLQ $3, AX

block16:
	MOVQ DX, CX
	SUBQ BX, CX
	CMPQ CX, $128
	JLT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R13
	MOVQ R9, CX
	MOVQ $1, R12

rows16:
	TESTQ CX, CX
	JZ    seg16
	VBROADCASTSD (R13)(AX*1), Y8
	VBROADCASTSD 8(R13)(AX*1), Y9
	VMOVUPD (R13)(BX*1), Y10
	VMOVUPD 32(R13)(BX*1), Y11
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y10, Y9, Y15
	VADDPD  Y15, Y4, Y4
	VMULPD  Y11, Y8, Y12
	VADDPD  Y12, Y1, Y1
	VMULPD  Y11, Y9, Y13
	VADDPD  Y13, Y5, Y5
	VMOVUPD 64(R13)(BX*1), Y10
	VMOVUPD 96(R13)(BX*1), Y11
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y10, Y9, Y15
	VADDPD  Y15, Y6, Y6
	VMULPD  Y11, Y8, Y12
	VADDPD  Y12, Y3, Y3
	VMULPD  Y11, Y9, Y13
	VADDPD  Y13, Y7, Y7
	ADDQ DX, R13
	DECQ CX
	JMP  rows16

seg16:
	TESTQ R12, R12
	JZ    store16
	MOVQ  R8, R13
	MOVQ  R10, CX
	XORQ  R12, R12
	JMP   rows16

store16:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	VMOVUPD Y4, (R11)(BX*1)
	VMOVUPD Y5, 32(R11)(BX*1)
	VMOVUPD Y6, 64(R11)(BX*1)
	VMOVUPD Y7, 96(R11)(BX*1)
	ADDQ $128, BX
	JMP  block16

block4:
	CMPQ BX, DX
	JGE  done
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ SI, R13
	MOVQ R9, CX
	MOVQ $1, R12

rows4:
	TESTQ CX, CX
	JZ    seg4
	VBROADCASTSD (R13)(AX*1), Y8
	VBROADCASTSD 8(R13)(AX*1), Y9
	VMOVUPD (R13)(BX*1), Y10
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y10, Y9, Y15
	VADDPD  Y15, Y4, Y4
	ADDQ DX, R13
	DECQ CX
	JMP  rows4

seg4:
	TESTQ R12, R12
	JZ    store4
	MOVQ  R8, R13
	MOVQ  R10, CX
	XORQ  R12, R12
	JMP   rows4

store4:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y4, (R11)(BX*1)
	ADDQ $32, BX
	JMP  block4

done:
	VZEROUPPER
	RET
