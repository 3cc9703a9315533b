//go:build !amd64

package corr

// Pure-Go half of the SIMD dispatch: on non-amd64 builds there is no
// vector backend, simdDetect reports false, and the batch kernel runs
// the scalar path. The kernel stubs exist only so batch.go and
// crossmoment.go compile everywhere; dispatch guarantees they are never
// called (pairBatch.simd and OnlineEngine.simd are false when
// simdDetect is).

func simdDetect() bool { return false }

func maronnaLocation4(xt, yt *float64, m int, q *quad, k, k2 float64) {
	panic("corr: maronnaLocation4 called without SIMD support")
}

func maronnaScatter4(xt, yt, wt *float64, m int, q *quad, k2 float64, act int) {
	panic("corr: maronnaScatter4 called without SIMD support")
}

func maronnaAdvance4(q *quad, act, prev int, fn, tol float64) (conv int) {
	panic("corr: maronnaAdvance4 called without SIMD support")
}

func weightedPearson4(xt, yt, wt *float64, m int, sums *[4][4]float64) {
	panic("corr: weightedPearson4 called without SIMD support")
}

func crossMomentsAVX2(tab, seg0, seg1 *float64, n0, n1, stride, i int) {
	panic("corr: crossMomentsAVX2 called without SIMD support")
}
