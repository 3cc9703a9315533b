#include "textflag.h"

// Lane-major AVX2 kernels for the batched Maronna weight passes.
//
// Each kernel advances 4 f64 lanes in lockstep over a quad-packed
// obs-major tile: element i of vector slot s lives at offset i*4+s of
// the tile. A lane's accumulators are
// pinned to its vector slot, so per lane the instruction stream is
// exactly the scalar reference's expression order:
//
//	dx := x[i] - t1
//	dy := y[i] - t2
//	d2 := (dx*dx)*i11 + ((2*dx)*dy)*i12 + (dy*dy)*i22
//	w  := 1.0; if d2 > k2 { w = k/sqrt(d2) }   (location)
//	                        w = k2/d2          (scatter)
//
// with 2*dx computed as dx+dx (bit-identical for every input, NaN
// included). VCMPPD uses predicate 30 (GT_OQ), matching Go's
// `d2 > k2` NaN-is-false semantics. The d2 <= k2 fast path (taken for
// ~86% of observations on market data) skips the sqrt/div entirely and
// accumulates sw += 1, sx += x, sy += y — bit-identical to the scalar
// w = 1.0 products because 1.0*v == v for every float64 v, including
// NaN payloads (multiplication by one returns the quieted NaN operand
// unchanged). When any of the four lanes exceeds k2 the whole vector
// takes the sqrt/div and blends w = 1.0 back into the lanes that did
// not — the blended lanes still see exactly the 1.0*v products.
//
// No FMA anywhere: gc's scalar codegen does not fuse the reference's
// mul/add chains, so a fused kernel would not be bit-identical.

DATA one64<>+0(SB)/8, $0x3FF0000000000000 // float64(1.0)
GLOBL one64<>(SB), RODATA|NOPTR, $8

// func maronnaLocation4(xt, yt *float64, m int, t1, t2, i11, i22, i12 *float64, k, k2 float64, sw, sx, sy *float64)
//
// Register plan:
//	SI/DI   xt/yt cursors (advance 32 bytes per observation)
//	CX      remaining observations
//	Y0..Y4  t1, t2, i11, i22, i12 (per-lane, loaded from the quad)
//	Y5/Y6   k, k2 broadcast
//	Y7      1.0 broadcast
//	Y8..Y10 sw, sx, sy accumulators
//	Y11..Y15 temps
TEXT ·maronnaLocation4(SB), NOSPLIT, $0-104
	MOVQ xt+0(FP), SI
	MOVQ yt+8(FP), DI
	MOVQ m+16(FP), CX
	MOVQ t1+24(FP), AX
	VMOVUPD (AX), Y0
	MOVQ t2+32(FP), AX
	VMOVUPD (AX), Y1
	MOVQ i11+40(FP), AX
	VMOVUPD (AX), Y2
	MOVQ i22+48(FP), AX
	VMOVUPD (AX), Y3
	MOVQ i12+56(FP), AX
	VMOVUPD (AX), Y4
	VBROADCASTSD k+64(FP), Y5
	VBROADCASTSD k2+72(FP), Y6
	VBROADCASTSD one64<>(SB), Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	TESTQ CX, CX
	JZ   locdone

locloop:
	VMOVUPD (SI), Y11          // x
	VMOVUPD (DI), Y12          // y
	VSUBPD  Y0, Y11, Y11       // dx = x - t1
	VSUBPD  Y1, Y12, Y12       // dy = y - t2
	VMULPD  Y11, Y11, Y13      // dx*dx
	VMULPD  Y2, Y13, Y13       // (dx*dx)*i11
	VADDPD  Y11, Y11, Y14      // 2*dx = dx+dx
	VMULPD  Y12, Y14, Y14      // (2*dx)*dy
	VMULPD  Y4, Y14, Y14       // ((2*dx)*dy)*i12
	VADDPD  Y14, Y13, Y13      // a+b
	VMULPD  Y12, Y12, Y14      // dy*dy
	VMULPD  Y3, Y14, Y14       // (dy*dy)*i22
	VADDPD  Y14, Y13, Y13      // d2 = (a+b)+c
	VCMPPD  $30, Y6, Y13, Y14  // mask = d2 > k2 (GT_OQ, NaN -> false)
	VMOVMSKPD Y14, AX
	TESTL   AX, AX
	JNE     locslow
	// All four lanes inside the Huber band: w = 1 everywhere.
	VADDPD  Y7, Y8, Y8         // sw += 1
	VMOVUPD (SI), Y11
	VADDPD  Y11, Y9, Y9        // sx += x (== 1.0*x bitwise)
	VMOVUPD (DI), Y12
	VADDPD  Y12, Y10, Y10      // sy += y
	JMP     locnext

locslow:
	VSQRTPD Y13, Y15           // sqrt(d2) (junk in unmasked lanes, blended away)
	VDIVPD  Y15, Y5, Y15       // k / sqrt(d2)
	VBLENDVPD Y14, Y15, Y7, Y15 // w = mask ? k/sqrt(d2) : 1.0
	VADDPD  Y15, Y8, Y8        // sw += w
	VMOVUPD (SI), Y11
	VMULPD  Y11, Y15, Y11      // w*x
	VADDPD  Y11, Y9, Y9        // sx += w*x
	VMOVUPD (DI), Y12
	VMULPD  Y12, Y15, Y12      // w*y
	VADDPD  Y12, Y10, Y10      // sy += w*y

locnext:
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  locloop

locdone:
	MOVQ sw+80(FP), AX
	VMOVUPD Y8, (AX)
	MOVQ sx+88(FP), AX
	VMOVUPD Y9, (AX)
	MOVQ sy+96(FP), AX
	VMOVUPD Y10, (AX)
	VZEROUPPER
	RET

// func maronnaScatter4(xt, yt, wt *float64, m int, t1, t2, i11, i22, i12 *float64, k2 float64, n11, n22, n12 *float64)
//
// Same register plan as maronnaLocation4 (Y5 unused: scatter needs
// only k2); BX cursors the weight tile. Accumulation order per lane is
// the scalar reference's left association: n11 += (w*dx)*dx,
// n22 += (w*dy)*dy, n12 += (w*dx)*dy.
TEXT ·maronnaScatter4(SB), NOSPLIT, $0-104
	MOVQ xt+0(FP), SI
	MOVQ yt+8(FP), DI
	MOVQ wt+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ t1+32(FP), AX
	VMOVUPD (AX), Y0
	MOVQ t2+40(FP), AX
	VMOVUPD (AX), Y1
	MOVQ i11+48(FP), AX
	VMOVUPD (AX), Y2
	MOVQ i22+56(FP), AX
	VMOVUPD (AX), Y3
	MOVQ i12+64(FP), AX
	VMOVUPD (AX), Y4
	VBROADCASTSD k2+72(FP), Y6
	VBROADCASTSD one64<>(SB), Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	TESTQ CX, CX
	JZ   scadone

scaloop:
	VMOVUPD (SI), Y11          // x
	VMOVUPD (DI), Y12          // y
	VSUBPD  Y0, Y11, Y11       // dx (x dead: scatter only needs dx/dy)
	VSUBPD  Y1, Y12, Y12       // dy
	VMULPD  Y11, Y11, Y13      // dx*dx
	VMULPD  Y2, Y13, Y13       // *i11
	VADDPD  Y11, Y11, Y14      // 2*dx
	VMULPD  Y12, Y14, Y14      // *dy
	VMULPD  Y4, Y14, Y14       // *i12
	VADDPD  Y14, Y13, Y13
	VMULPD  Y12, Y12, Y14      // dy*dy
	VMULPD  Y3, Y14, Y14       // *i22
	VADDPD  Y14, Y13, Y13      // d2
	VCMPPD  $30, Y6, Y13, Y14  // mask = d2 > k2
	VMOVMSKPD Y14, AX
	TESTL   AX, AX
	JNE     scaslow
	// w = 1 everywhere: weights are ones, moments are the raw products.
	VMOVUPD Y7, (BX)
	VMULPD  Y11, Y11, Y15      // (1*dx)*dx == dx*dx
	VADDPD  Y15, Y8, Y8
	VMULPD  Y12, Y12, Y15      // dy*dy
	VADDPD  Y15, Y9, Y9
	VMULPD  Y12, Y11, Y15      // dx*dy
	VADDPD  Y15, Y10, Y10
	JMP     scanext

scaslow:
	VDIVPD  Y13, Y6, Y15       // k2/d2
	VBLENDVPD Y14, Y15, Y7, Y15 // w = mask ? k2/d2 : 1.0
	VMOVUPD Y15, (BX)          // wout[i] = w
	VMULPD  Y11, Y15, Y14      // w*dx
	VMULPD  Y11, Y14, Y14      // (w*dx)*dx
	VADDPD  Y14, Y8, Y8        // n11 +=
	VMULPD  Y12, Y15, Y14      // w*dy
	VMULPD  Y12, Y14, Y14      // (w*dy)*dy
	VADDPD  Y14, Y9, Y9        // n22 +=
	VMULPD  Y11, Y15, Y14      // w*dx
	VMULPD  Y12, Y14, Y14      // (w*dx)*dy
	VADDPD  Y14, Y10, Y10      // n12 +=

scanext:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	DECQ CX
	JNZ  scaloop

scadone:
	MOVQ n11+80(FP), AX
	VMOVUPD Y8, (AX)
	MOVQ n22+88(FP), AX
	VMOVUPD Y9, (AX)
	MOVQ n12+96(FP), AX
	VMOVUPD Y10, (AX)
	VZEROUPPER
	RET
