#include "textflag.h"

// Lane-major AVX2 kernels for the batched Maronna kernel's quads: the
// two weight passes, the sweep's tail (maronnaAdvance4) and Combined's
// weighted Pearson (weightedPearson4).
//
// The weight passes advance 4 f64 lanes in lockstep over a quad-packed
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
DATA sixteen64<>+0(SB)/8, $0x4030000000000000 // float64(16)
GLOBL sixteen64<>(SB), RODATA|NOPTR, $8
DATA absmask64<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF // clears the sign bit
GLOBL absmask64<>(SB), RODATA|NOPTR, $8
DATA lanebits<>+0(SB)/8, $1
DATA lanebits<>+8(SB)/8, $2
DATA lanebits<>+16(SB)/8, $4
DATA lanebits<>+24(SB)/8, $8
GLOBL lanebits<>(SB), RODATA|NOPTR, $32

// Byte offsets of the quad struct's fields (batch.go). Each field is
// one [4]float64 — one vector — except pg and pf, five vectors each.
#define Q_T1 0
#define Q_T2 32
#define Q_V11 64
#define Q_V22 96
#define Q_V12 128
#define Q_I11 160
#define Q_I22 192
#define Q_I12 224
#define Q_SW 256
#define Q_T1N 288
#define Q_T2N 320
#define Q_N11 352
#define Q_N22 384
#define Q_N12 416
#define Q_PG 448
#define Q_PF 608

// func maronnaLocation4(xt, yt *float64, m int, q *quad, k, k2 float64)
//
// Reads the quad's t1, t2, i11, i22, i12; writes sw and the new
// center t1n = sx/sw, t2n = sy/sw (the scalar code's division; lanes
// with sw == 0 get junk the caller discards).
//
// Register plan:
//	SI/DI   xt/yt cursors (advance 32 bytes per observation)
//	CX      remaining observations
//	DX      the quad (AX takes the compare masks)
//	Y0..Y4  t1, t2, i11, i22, i12 (per-lane, loaded from the quad)
//	Y5/Y6   k, k2 broadcast
//	Y7      1.0 broadcast
//	Y8..Y10 sw, sx, sy accumulators
//	Y11..Y15 temps
TEXT ·maronnaLocation4(SB), NOSPLIT, $0-48
	MOVQ xt+0(FP), SI
	MOVQ yt+8(FP), DI
	MOVQ m+16(FP), CX
	MOVQ q+24(FP), DX
	VMOVUPD Q_T1(DX), Y0
	VMOVUPD Q_T2(DX), Y1
	VMOVUPD Q_I11(DX), Y2
	VMOVUPD Q_I22(DX), Y3
	VMOVUPD Q_I12(DX), Y4
	VBROADCASTSD k+32(FP), Y5
	VBROADCASTSD k2+40(FP), Y6
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
	VMOVUPD Y8, Q_SW(DX)
	VDIVPD  Y8, Y9, Y9         // t1n = sx/sw
	VMOVUPD Y9, Q_T1N(DX)
	VDIVPD  Y8, Y10, Y10       // t2n = sy/sw
	VMOVUPD Y10, Q_T2N(DX)
	VZEROUPPER
	RET

// func maronnaScatter4(xt, yt, wt *float64, m int, q *quad, k2 float64, act int)
//
// Reads the quad's new center t1n, t2n and i11, i22, i12; writes the
// scatter sums n11, n22, n12, and the weights of the lanes in act (bit
// s for slot s) into the weight tile: a masked store leaves the other
// lanes' columns, so a finished lane's final weights stay in place.
// Same register plan as maronnaLocation4, with Y5 the act mask in
// place of k (scatter needs only k2); BX cursors the weight tile.
// Accumulation order per lane is the scalar reference's left
// association: n11 += (w*dx)*dx, n22 += (w*dy)*dy, n12 += (w*dx)*dy.
TEXT ·maronnaScatter4(SB), NOSPLIT, $0-56
	MOVQ xt+0(FP), SI
	MOVQ yt+8(FP), DI
	MOVQ wt+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ q+32(FP), DX
	VMOVUPD Q_T1N(DX), Y0
	VMOVUPD Q_T2N(DX), Y1
	VMOVUPD Q_I11(DX), Y2
	VMOVUPD Q_I22(DX), Y3
	VMOVUPD Q_I12(DX), Y4
	VBROADCASTSD k2+40(FP), Y6
	VMOVDQU lanebits<>(SB), Y14
	VPBROADCASTQ act+48(FP), Y5
	VPAND    Y14, Y5, Y5
	VPCMPEQQ Y14, Y5, Y5       // act mask
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
	VMASKMOVPD Y7, Y5, (BX)
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
	VMASKMOVPD Y15, Y5, (BX)   // wout[i] = w
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
	VMOVUPD Y8, Q_N11(DX)
	VMOVUPD Y9, Q_N22(DX)
	VMOVUPD Y10, Q_N12(DX)
	VZEROUPPER
	RET

// func maronnaAdvance4(q *quad, act, prev int, fn, tol float64) (conv int)
//
// advanceQuad (batch.go) for the four lanes at once: bit s of act
// selects the lanes whose state is advanced, bit s of prev those whose
// Anderson history holds a previous step. Every lane computes every
// expression; the lane's decisions are compare masks, and blends store
// only what the scalar code would: t and v for act lanes, the history
// for act lanes that did not converge. Per lane the operations are the
// scalar code's, in its order and association, so the states are
// bit-identical. The converged lanes come back as bits of conv.
//
// Register plan:
//	AX      the quad
//	Y15     act mask; Y14 keep = act &^ conv; Y13 use (extrapolate)
//	Y0..Y2  g2..g4 = n11/fn, n22/fn, n12/fn
//	Y3..Y5  f2..f4 = g - v, later a2..a4 (extrapolated scatter)
//	Y10/Y11 fd, dd; Y12 theta
//	Y6..Y9  temps
TEXT ·maronnaAdvance4(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	VMOVDQU lanebits<>(SB), Y14
	VPBROADCASTQ act+8(FP), Y15
	VPAND    Y14, Y15, Y15
	VPCMPEQQ Y14, Y15, Y15     // act: all ones in lanes whose bit is set
	VPBROADCASTQ prev+16(FP), Y13
	VPAND    Y14, Y13, Y13
	VPCMPEQQ Y14, Y13, Y13     // prev
	VBROADCASTSD fn+24(FP), Y12
	VBROADCASTSD absmask64<>(SB), Y11

	VMOVUPD Q_N11(AX), Y0
	VDIVPD  Y12, Y0, Y0        // g2 = n11/fn
	VMOVUPD Q_N22(AX), Y1
	VDIVPD  Y12, Y1, Y1        // g3 = n22/fn
	VMOVUPD Q_N12(AX), Y2
	VDIVPD  Y12, Y2, Y2        // g4 = n12/fn
	VMOVUPD Q_V11(AX), Y3
	VMOVUPD Q_V22(AX), Y4
	VMOVUPD Q_V12(AX), Y5
	VANDPD  Y11, Y3, Y6        // |v11|
	VANDPD  Y11, Y4, Y7        // |v22|
	VADDPD  Y7, Y6, Y6
	VANDPD  Y11, Y5, Y7        // |v12|
	VADDPD  Y7, Y6, Y6         // den = (|v11| + |v22|) + |v12|
	VSUBPD  Y3, Y0, Y3         // f2 = g2 - v11
	VSUBPD  Y4, Y1, Y4         // f3 = g3 - v22
	VSUBPD  Y5, Y2, Y5         // f4 = g4 - v12
	VANDPD  Y11, Y3, Y7
	VANDPD  Y11, Y4, Y8
	VADDPD  Y8, Y7, Y7
	VANDPD  Y11, Y5, Y8
	VADDPD  Y8, Y7, Y7         // num = (|f2| + |f3|) + |f4|
	VDIVPD  Y6, Y7, Y7         // num/den
	VBROADCASTSD tol+32(FP), Y8
	VCMPPD  $0x11, Y8, Y7, Y7  // num/den < tol (LT_OQ: NaN -> false)
	VXORPD  Y8, Y8, Y8
	VCMPPD  $0x1e, Y8, Y6, Y6  // den > 0 (GT_OQ)
	VANDPD  Y6, Y7, Y7
	VANDPD  Y15, Y7, Y7        // conv
	VMOVMSKPD Y7, BX
	MOVQ    BX, conv+40(FP)
	VANDNPD Y15, Y7, Y14       // keep = act &^ conv
	VANDNPD Y13, Y7, Y13       // prev &^ conv

	// fd, dd = Σ f*d, Σ d*d over c = 0..4 with d = f - pf, from
	// zero; pf takes f in the keep lanes once its old value is read.
	VXORPD  Y10, Y10, Y10
	VXORPD  Y11, Y11, Y11
	VMOVUPD Q_T1N(AX), Y6
	VSUBPD  Q_T1(AX), Y6, Y6   // f0 = t1n - t1
	VMOVUPD Q_PF+0(AX), Y12
	VSUBPD  Y12, Y6, Y8        // d
	VMULPD  Y8, Y6, Y9         // f*d
	VADDPD  Y9, Y10, Y10
	VMULPD  Y8, Y8, Y9         // d*d
	VADDPD  Y9, Y11, Y11
	VBLENDVPD Y14, Y6, Y12, Y12
	VMOVUPD Y12, Q_PF+0(AX)
	VMOVUPD Q_T2N(AX), Y6
	VSUBPD  Q_T2(AX), Y6, Y6   // f1 = t2n - t2
	VMOVUPD Q_PF+32(AX), Y12
	VSUBPD  Y12, Y6, Y8
	VMULPD  Y8, Y6, Y9
	VADDPD  Y9, Y10, Y10
	VMULPD  Y8, Y8, Y9
	VADDPD  Y9, Y11, Y11
	VBLENDVPD Y14, Y6, Y12, Y12
	VMOVUPD Y12, Q_PF+32(AX)
	VMOVUPD Q_PF+64(AX), Y12   // f2
	VSUBPD  Y12, Y3, Y8
	VMULPD  Y8, Y3, Y9
	VADDPD  Y9, Y10, Y10
	VMULPD  Y8, Y8, Y9
	VADDPD  Y9, Y11, Y11
	VBLENDVPD Y14, Y3, Y12, Y12
	VMOVUPD Y12, Q_PF+64(AX)
	VMOVUPD Q_PF+96(AX), Y12   // f3
	VSUBPD  Y12, Y4, Y8
	VMULPD  Y8, Y4, Y9
	VADDPD  Y9, Y10, Y10
	VMULPD  Y8, Y8, Y9
	VADDPD  Y9, Y11, Y11
	VBLENDVPD Y14, Y4, Y12, Y12
	VMOVUPD Y12, Q_PF+96(AX)
	VMOVUPD Q_PF+128(AX), Y12  // f4
	VSUBPD  Y12, Y5, Y8
	VMULPD  Y8, Y5, Y9
	VADDPD  Y9, Y10, Y10
	VMULPD  Y8, Y8, Y9
	VADDPD  Y9, Y11, Y11
	VBLENDVPD Y14, Y5, Y12, Y12
	VMOVUPD Y12, Q_PF+128(AX)

	// use = prev && dd > 0 && |theta| < 16 && the safeguard.
	VDIVPD  Y11, Y10, Y12      // theta = fd/dd
	VXORPD  Y9, Y9, Y9
	VCMPPD  $0x1e, Y9, Y11, Y11 // dd > 0
	VANDPD  Y11, Y13, Y13
	VBROADCASTSD absmask64<>(SB), Y11
	VANDPD  Y11, Y12, Y11      // |theta|
	VBROADCASTSD sixteen64<>(SB), Y10
	VCMPPD  $0x11, Y10, Y11, Y11 // |theta| < 16
	VANDPD  Y11, Y13, Y13
	VSUBPD  Q_PG+64(AX), Y0, Y3 // a2 = g2 - theta*(g2 - pg2)
	VMULPD  Y3, Y12, Y3
	VSUBPD  Y3, Y0, Y3
	VSUBPD  Q_PG+96(AX), Y1, Y4 // a3
	VMULPD  Y4, Y12, Y4
	VSUBPD  Y4, Y1, Y4
	VSUBPD  Q_PG+128(AX), Y2, Y5 // a4
	VMULPD  Y5, Y12, Y5
	VSUBPD  Y5, Y2, Y5
	VCMPPD  $0x1e, Y9, Y3, Y8  // a2 > 0
	VANDPD  Y8, Y13, Y13
	VCMPPD  $0x1e, Y9, Y4, Y8  // a3 > 0
	VANDPD  Y8, Y13, Y13
	VMULPD  Y4, Y3, Y8         // a2*a3
	VMULPD  Y5, Y5, Y10        // a4*a4
	VSUBPD  Y10, Y8, Y8
	VCMPPD  $0x1e, Y9, Y8, Y8  // a2*a3 - a4*a4 > 0
	VANDPD  Y8, Y13, Y13       // use

	// Next state: use ? a : g, stored in the act lanes; pg takes g in
	// the keep lanes once its old value is read.
	VMOVUPD Q_T1N(AX), Y6      // g0
	VMOVUPD Q_PG+0(AX), Y7
	VSUBPD  Y7, Y6, Y8
	VMULPD  Y8, Y12, Y8
	VSUBPD  Y8, Y6, Y8         // a0
	VBLENDVPD Y13, Y8, Y6, Y8
	VBLENDVPD Y14, Y6, Y7, Y7
	VMOVUPD Y7, Q_PG+0(AX)
	VMOVUPD Q_T1(AX), Y7
	VBLENDVPD Y15, Y8, Y7, Y7
	VMOVUPD Y7, Q_T1(AX)
	VMOVUPD Q_T2N(AX), Y6      // g1
	VMOVUPD Q_PG+32(AX), Y7
	VSUBPD  Y7, Y6, Y8
	VMULPD  Y8, Y12, Y8
	VSUBPD  Y8, Y6, Y8         // a1
	VBLENDVPD Y13, Y8, Y6, Y8
	VBLENDVPD Y14, Y6, Y7, Y7
	VMOVUPD Y7, Q_PG+32(AX)
	VMOVUPD Q_T2(AX), Y7
	VBLENDVPD Y15, Y8, Y7, Y7
	VMOVUPD Y7, Q_T2(AX)
	VBLENDVPD Y13, Y3, Y0, Y8  // v11
	VMOVUPD Q_PG+64(AX), Y7
	VBLENDVPD Y14, Y0, Y7, Y7
	VMOVUPD Y7, Q_PG+64(AX)
	VMOVUPD Q_V11(AX), Y7
	VBLENDVPD Y15, Y8, Y7, Y7
	VMOVUPD Y7, Q_V11(AX)
	VBLENDVPD Y13, Y4, Y1, Y8  // v22
	VMOVUPD Q_PG+96(AX), Y7
	VBLENDVPD Y14, Y1, Y7, Y7
	VMOVUPD Y7, Q_PG+96(AX)
	VMOVUPD Q_V22(AX), Y7
	VBLENDVPD Y15, Y8, Y7, Y7
	VMOVUPD Y7, Q_V22(AX)
	VBLENDVPD Y13, Y5, Y2, Y8  // v12
	VMOVUPD Q_PG+128(AX), Y7
	VBLENDVPD Y14, Y2, Y7, Y7
	VMOVUPD Y7, Q_PG+128(AX)
	VMOVUPD Q_V12(AX), Y7
	VBLENDVPD Y15, Y8, Y7, Y7
	VMOVUPD Y7, Q_V12(AX)
	VZEROUPPER
	RET

// func weightedPearson4(xt, yt, wt *float64, m int, sums *[4][4]float64)
//
// WeightedPearson for four lanes of quad-packed tiles. Pass one sums
// sw += w, sx += w*x, sy += w*y; the means are sx/sw and sy/sw (a
// division per lane, as in the scalar code); pass two sums
// vx += (w*dx)*dx, vy += (w*dy)*dy, cxy += (w*dx)*dy with dx = x-mx,
// dy = y-my, and sums receives sw, vx, vy, cxy as its four rows.
// Lanes whose sw <= 0 get junk moments, which the caller discards
// exactly where WeightedPearson returns early.
//
// Register plan:
//	SI/DI/BX  xt/yt/wt cursors; R8/R9/R10 their starts; DX m
//	Y0..Y2    sw, sx, sy
//	Y6/Y7     mx, my
//	Y8..Y10   vx, vy, cxy
//	Y3..Y5, Y11..Y14 temps
TEXT ·weightedPearson4(SB), NOSPLIT, $0-40
	MOVQ xt+0(FP), SI
	MOVQ yt+8(FP), DI
	MOVQ wt+16(FP), BX
	MOVQ m+24(FP), DX
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ BX, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	MOVQ DX, CX
	TESTQ CX, CX
	JZ   wpmeans

wploop1:
	VMOVUPD (BX), Y3           // w
	VADDPD  Y3, Y0, Y0         // sw += w
	VMULPD  (SI), Y3, Y4       // w*x
	VADDPD  Y4, Y1, Y1         // sx += w*x
	VMULPD  (DI), Y3, Y5       // w*y
	VADDPD  Y5, Y2, Y2         // sy += w*y
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	DECQ CX
	JNZ  wploop1

wpmeans:
	VDIVPD  Y0, Y1, Y6         // mx = sx/sw
	VDIVPD  Y0, Y2, Y7         // my = sy/sw
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	MOVQ R8, SI
	MOVQ R9, DI
	MOVQ R10, BX
	MOVQ DX, CX
	TESTQ CX, CX
	JZ   wpdone

wploop2:
	VMOVUPD (SI), Y11
	VSUBPD  Y6, Y11, Y11       // dx = x - mx
	VMOVUPD (DI), Y12
	VSUBPD  Y7, Y12, Y12       // dy = y - my
	VMOVUPD (BX), Y3           // w
	VMULPD  Y11, Y3, Y13       // w*dx
	VMULPD  Y11, Y13, Y14      // (w*dx)*dx
	VADDPD  Y14, Y8, Y8        // vx +=
	VMULPD  Y12, Y13, Y14      // (w*dx)*dy
	VADDPD  Y14, Y10, Y10      // cxy +=
	VMULPD  Y12, Y3, Y13       // w*dy
	VMULPD  Y12, Y13, Y13      // (w*dy)*dy
	VADDPD  Y13, Y9, Y9        // vy +=
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	DECQ CX
	JNZ  wploop2

wpdone:
	MOVQ sums+32(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y8, 32(AX)
	VMOVUPD Y9, 64(AX)
	VMOVUPD Y10, 96(AX)
	VZEROUPPER
	RET
