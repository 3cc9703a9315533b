//go:build amd64

package corr

// Arch-specific half of the SIMD dispatch: CPUID feature detection and
// the Go declarations of the hand-written AVX2 kernels in
// maronna_amd64.s and crossmoment_amd64.s. The build tag pair (`amd64`
// here, `!amd64` in simd_fallback.go) guarantees exactly one definition
// of each symbol in every build configuration.

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv() (eax, edx uint32)

// simdDetect reports whether the host can execute the AVX2 kernels:
// the CPU must advertise AVX and AVX2, and the OS must save/restore
// the YMM state (OSXSAVE set and XCR0 bits 1..2 enabled). This is the
// same ladder the Go runtime uses for its own AVX2 dispatch.
func simdDetect() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// maronnaLocation4 is the 4-wide f64 location pass: one fixed-point
// location step of a quad's four lanes in lockstep. xt and yt point to
// the quad's window in its packed day tiles (obs-major: element (i, s)
// at offset i*4+s); the lanes' location and inverse scatter come from
// q, and their Huber w1 weight sums and new centers go back to it. Per
// lane the arithmetic is expression-for-expression maronnaLocation
// and its caller's sx/sw, sy/sw — same values, same order — so results
// are bit-identical to the scalar pass.
//
//go:noescape
func maronnaLocation4(xt, yt *float64, m int, q *quad, k, k2 float64)

// maronnaScatter4 is the 4-wide f64 scatter pass about q's new
// centers, recording the per-observation Huber w2 weights of the lanes
// in act (bit s for slot s) into the quad-packed tile wt and the four
// lanes' scatter sums into q. Bit-identical to maronnaScatter per
// lane.
//
//go:noescape
func maronnaScatter4(xt, yt, wt *float64, m int, q *quad, k2 float64, act int)

// maronnaAdvance4 is advanceQuad for all four lanes of q in vector
// registers, bit-identical to it per lane (maronna_amd64.s).
//
//go:noescape
func maronnaAdvance4(q *quad, act, prev int, fn, tol float64) (conv int)

// weightedPearson4 is WeightedPearson's two passes for four lanes of
// quad-packed tiles: sums receives each lane's weight sum and its
// weighted central moments vx, vy, cxy about sx/sw, sy/sw. Per lane
// the arithmetic is WeightedPearson's, expression for expression, so
// the caller's weightedCorr of the moments is bit-identical to it.
//
//go:noescape
func weightedPearson4(xt, yt, wt *float64, m int, sums *[4][4]float64)

// crossMomentsAVX2 is the vector cross-moment kernel: the table's row
// pair (i, i+1) over n0 ring rows from seg0 then n1 from seg1, with
// crossMomentsGo's layout and per-element order (crossmoment_amd64.s).
//
//go:noescape
func crossMomentsAVX2(tab, seg0, seg1 *float64, n0, n1, stride, i int)
