package corr

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// simdAdversarialUniverse builds a return set that stresses every
// batch control path: fat tails, a constant stock (degenerate cold
// inits, lanes resolving before the first sweep), a near-collinear
// pair (determinant collapses), and a mid-stream level shift (warm
// strict failures and cold restarts mid-chain).
func simdAdversarialUniverse(n, T int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rets := make([][]float64, n)
	for s := range rets {
		rets[s] = make([]float64, T)
		for i := range rets[s] {
			v := 1e-3 * rng.NormFloat64()
			if rng.Intn(31) == 0 {
				v *= 50
			}
			rets[s][i] = v
		}
	}
	if n > 2 {
		for i := range rets[2] {
			rets[2][i] = 0
		}
	}
	if n > 4 {
		for i := range rets[3] {
			rets[3][i] = rets[4][i] + 1e-12*rng.NormFloat64()
		}
	}
	if n > 5 {
		for i := T / 2; i < T; i++ {
			rets[5][i] *= 1e5
		}
	}
	return rets
}

// seriesBitEqual asserts two series sets are bitwise identical
// (NaN-safe) and fails the test with context when they are not.
func seriesBitEqual(t *testing.T, label string, got, want []*Series) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", label, len(got), len(want))
	}
	for oi := range want {
		for k := range want[oi].Corr {
			for w := range want[oi].Corr[k] {
				g, r := got[oi].Corr[k][w], want[oi].Corr[k][w]
				if math.Float64bits(g) != math.Float64bits(r) {
					t.Fatalf("%s: series %v pair %d window %d: got %v (%x), want %v (%x)",
						label, want[oi].Type, k, w, g, math.Float64bits(g), r, math.Float64bits(r))
				}
			}
		}
	}
}

// TestQuadLayout pins the quad struct's field offsets to the Q_*
// constants the AVX2 kernels address it by (maronna_amd64.s).
func TestQuadLayout(t *testing.T) {
	var q quad
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"t1", unsafe.Offsetof(q.t1), 0}, {"t2", unsafe.Offsetof(q.t2), 32},
		{"v11", unsafe.Offsetof(q.v11), 64}, {"v22", unsafe.Offsetof(q.v22), 96}, {"v12", unsafe.Offsetof(q.v12), 128},
		{"i11", unsafe.Offsetof(q.i11), 160}, {"i22", unsafe.Offsetof(q.i22), 192}, {"i12", unsafe.Offsetof(q.i12), 224},
		{"sw", unsafe.Offsetof(q.sw), 256}, {"t1n", unsafe.Offsetof(q.t1n), 288}, {"t2n", unsafe.Offsetof(q.t2n), 320},
		{"n11", unsafe.Offsetof(q.n11), 352}, {"n22", unsafe.Offsetof(q.n22), 384}, {"n12", unsafe.Offsetof(q.n12), 416},
		{"pg", unsafe.Offsetof(q.pg), 448}, {"pf", unsafe.Offsetof(q.pf), 608},
	} {
		if f.got != f.want {
			t.Errorf("quad.%s at offset %d, the kernels read %d", f.name, f.got, f.want)
		}
	}
}

// TestSIMDBitIdentityRaggedLanes pins the SIMD f64 path bitwise to the
// frozen per-pair reference across batch occupancies: tile L cuts the
// 8-stock triangle into stock blocks of edge ⌊√L⌋, so L = 1..17 runs
// batches of 1, 3, 4, 6, 9 and 16 lanes — one lane in a padded quad,
// quads padded by one to three dead lanes, whole quads, and several
// quads per batch. The adversarial universe keeps mid-sweep
// resolution, idle lanes in live quads, and warm/strict restarts in
// play at every width. If the host (or build) has no AVX2 the SIMD
// config degrades to scalar and the test still checks
// engine-vs-reference.
func TestSIMDBitIdentityRaggedLanes(t *testing.T) {
	const n, T, m = 8, 220, 60
	rets := simdAdversarialUniverse(n, T, 20080305)
	types := []Type{Maronna, Combined}

	ref, err := ComputeSeriesMultiReference(EngineConfig{M: m, Workers: 1}, types, rets)
	if err != nil {
		t.Fatal(err)
	}
	for lanes := 1; lanes <= 17; lanes++ {
		simd, err := ComputeSeriesMulti(EngineConfig{M: m, Workers: 1, tile: lanes}, types, rets)
		if err != nil {
			t.Fatal(err)
		}
		seriesBitEqual(t, "simd vs reference", simd, ref)
		scal, err := ComputeSeriesMulti(EngineConfig{M: m, Workers: 1, tile: lanes, DisableSIMD: true}, types, rets)
		if err != nil {
			t.Fatal(err)
		}
		seriesBitEqual(t, "scalar vs reference", scal, ref)
	}
}

// TestSIMDWarmChainRestarts drives pairBatch directly through a
// multi-window warm chain — every window seeded from the previous
// fit, exactly like tileRun — over lanes whose chains break mid-stream
// (level shifts force strict failures, a dead stock forces degenerate
// exits, NaN poisoning wanders to budget exhaustion), under both
// dispatch tiers, checking fits and weight rows bitwise against the
// per-pair reference at every window.
func TestSIMDWarmChainRestarts(t *testing.T) {
	const lanes, T, m = 11, 150, 40
	rng := rand.New(rand.NewSource(7))
	xs := make([][]float64, lanes)
	ys := make([][]float64, lanes)
	for l := range xs {
		xs[l] = make([]float64, T)
		ys[l] = make([]float64, T)
		for i := 0; i < T; i++ {
			f := rng.NormFloat64()
			xs[l][i] = 1e-3 * (f + 0.4*rng.NormFloat64())
			ys[l][i] = 1e-3 * (f + 0.4*rng.NormFloat64())
		}
	}
	for i := T / 3; i < T; i++ {
		xs[1][i] *= 1e5 // level shift mid-chain: strict failures
	}
	for i := range xs[2] {
		xs[2][i] = 0 // dead stock: degenerate every window
	}
	copy(ys[3], xs[3]) // collinear: determinant collapse
	xs[4][T/2] = math.NaN()
	ys[4][T/2+3] = math.NaN() // poisoned stretch of windows

	est := NewMaronnaEstimator(DefaultMaronnaConfig())
	steps := T - m + 1

	// Reference: each lane alone, warm-chained per pair.
	refFits := make([][]Fit, lanes)
	refW := make([][][]float64, lanes)
	var sc *Scratch
	for l := 0; l < lanes; l++ {
		refFits[l] = make([]Fit, steps)
		refW[l] = make([][]float64, steps)
		var warm Fit
		for ti := 0; ti < steps; ti++ {
			var f Fit
			f, sc = est.FitScratchShared(xs[l][ti:ti+m], ys[l][ti:ti+m], sc, &warm, nil, nil)
			refFits[l][ti] = f
			refW[l][ti] = append([]float64(nil), sc.Weights()...)
			warm = f
		}
	}

	for _, simd := range []bool{false, true} {
		b := newPairBatch(est.Config(), simd)
		b.load(m, xs, ys, nil)
		warm := make([]Fit, lanes)
		for ti := 0; ti < steps; ti++ {
			b.window(ti)
			for l := 0; l < lanes; l++ {
				b.add(l, &warm[l], nil, nil, nil)
			}
			b.run(nil)
			b.combine()
			for l := 0; l < lanes; l++ {
				f := b.fits[l]
				if !fitsBitEqual(f, refFits[l][ti]) {
					t.Fatalf("simd=%v lane %d window %d: fit %+v, reference %+v", simd, l, ti, f, refFits[l][ti])
				}
				w := laneWeights(b, l)
				for j := range refW[l][ti] {
					if math.Float64bits(w[j]) != math.Float64bits(refW[l][ti][j]) {
						t.Fatalf("simd=%v lane %d window %d: weight[%d] = %v, reference %v",
							simd, l, ti, j, w[j], refW[l][ti][j])
					}
				}
				xw, yw := xs[l][ti:ti+m], ys[l][ti:ti+m]
				if c, want := b.comb[l], CombinedFromFit(xw, yw, f.Rho, refW[l][ti]); math.Float64bits(c) != math.Float64bits(want) {
					t.Fatalf("simd=%v lane %d window %d: combined %v, reference %v", simd, l, ti, c, want)
				}
				warm[l] = f
			}
		}
	}
}

// FuzzSIMDMatchesScalar feeds randomized batches — ragged lane counts,
// random window lengths, occasional NaN, zero-variance and collinear
// corruption, warm seeds of every flavor — through both dispatch tiers
// and requires each lane's fit and weight row to be bitwise identical
// to the frozen per-pair kernel (MaronnaEstimator.FitScratchShared)
// on the same window, so a change to both tiers at once cannot hide.
// On hosts without AVX2 both tiers run scalar and the fuzz still
// checks them against the reference.
func FuzzSIMDMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(16))
	f.Add(int64(2), uint8(7), uint8(31))
	f.Add(int64(3), uint8(13), uint8(24))
	f.Add(int64(99), uint8(1), uint8(60))
	f.Add(int64(1234), uint8(17), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, lanesRaw, mRaw uint8) {
		lanes := int(lanesRaw)%17 + 1
		m := int(mRaw)%56 + 8
		rng := rand.New(rand.NewSource(seed))
		xs := make([][]float64, lanes)
		ys := make([][]float64, lanes)
		warms := make([]*Fit, lanes)
		for l := range xs {
			xs[l] = make([]float64, m)
			ys[l] = make([]float64, m)
			for i := 0; i < m; i++ {
				fv := rng.NormFloat64()
				xs[l][i] = 1e-3 * (fv + 0.5*rng.NormFloat64())
				ys[l][i] = 1e-3 * (fv + 0.5*rng.NormFloat64())
			}
			switch rng.Intn(8) {
			case 0:
				xs[l][rng.Intn(m)] = math.NaN()
			case 1:
				for i := range xs[l] {
					xs[l][i] = 0
				}
			case 2:
				copy(ys[l], xs[l])
			case 3:
				for i := m / 2; i < m; i++ {
					xs[l][i] *= 1e6
				}
			}
			switch rng.Intn(4) {
			case 0:
				w := Fit{T1: rng.NormFloat64(), T2: rng.NormFloat64(),
					V11: rng.Float64(), V22: rng.Float64(), V12: rng.NormFloat64() * 0.1, Valid: true}
				warms[l] = &w
			case 1:
				warms[l] = &Fit{T1: math.NaN(), V11: 1, V22: 1, Valid: true}
			}
		}
		est := NewMaronnaEstimator(DefaultMaronnaConfig())
		var sc *Scratch
		for _, simd := range []bool{false, true} {
			b := runBatch(simd, m, xs, ys, warms, nil)
			b.combine()
			for l := 0; l < lanes; l++ {
				var want Fit
				want, sc = est.FitScratchShared(xs[l], ys[l], sc, warms[l], nil, nil)
				if !fitsBitEqual(b.fits[l], want) {
					t.Fatalf("simd=%v lane %d: fit %+v, reference %+v", simd, l, b.fits[l], want)
				}
				ws := laneWeights(b, l)
				for j, w := range sc.Weights() {
					if math.Float64bits(ws[j]) != math.Float64bits(w) {
						t.Fatalf("simd=%v lane %d weight[%d]: %v, reference %v", simd, l, j, ws[j], w)
					}
				}
				if c, want := b.comb[l], CombinedFromFit(xs[l], ys[l], want.Rho, sc.Weights()); math.Float64bits(c) != math.Float64bits(want) {
					t.Fatalf("simd=%v lane %d: combined %v, reference %v", simd, l, c, want)
				}
			}
		}
	})
}
