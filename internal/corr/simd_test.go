package corr

import (
	"math"
	"math/rand"
	"testing"
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

// TestSIMDBitIdentityRaggedLanes pins the SIMD f64 path bitwise to the
// frozen per-pair reference across every batch occupancy from one lane
// to four-plus quads: TileSize L makes the matrix engine run batches
// of exactly L lanes (the last tile ragged), so L = 1..17 walks the
// quad boundaries (<4 all-scalar, 4 one quad, 5..7 quad+tail, 8, 12,
// 16 multi-quad, 17 four quads + one). The adversarial universe keeps
// mid-sweep resolution, compaction, and warm/strict restarts in play
// at every width. If the host (or build) has no AVX2 the SIMD config
// degrades to scalar and the test still checks engine-vs-reference.
func TestSIMDBitIdentityRaggedLanes(t *testing.T) {
	const n, T, m = 8, 220, 60
	rets := simdAdversarialUniverse(n, T, 20080305)
	types := []Type{Maronna, Combined}

	ref, err := ComputeSeriesMultiReference(EngineConfig{M: m, Workers: 1}, types, rets)
	if err != nil {
		t.Fatal(err)
	}
	for lanes := 1; lanes <= 17; lanes++ {
		simd, err := ComputeMatrixSeries(EngineConfig{M: m, Workers: 1, TileSize: lanes}, types, rets)
		if err != nil {
			t.Fatal(err)
		}
		seriesBitEqual(t, "simd vs reference", simd, ref)
		scal, err := ComputeMatrixSeries(EngineConfig{M: m, Workers: 1, TileSize: lanes, DisableSIMD: true}, types, rets)
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
		b.begin(m, lanes)
		warm := make([]Fit, lanes)
		for ti := 0; ti < steps; ti++ {
			for l := 0; l < lanes; l++ {
				b.add(xs[l][ti:ti+m], ys[l][ti:ti+m], &warm[l], nil, nil, l, nil)
			}
			b.run(nil)
			for l := 0; l < lanes; l++ {
				f := b.fits[l]
				if !fitsBitEqual(f, refFits[l][ti]) {
					t.Fatalf("simd=%v lane %d window %d: fit %+v, reference %+v", simd, l, ti, f, refFits[l][ti])
				}
				for j := range refW[l][ti] {
					if math.Float64bits(b.wOut[l][j]) != math.Float64bits(refW[l][ti][j]) {
						t.Fatalf("simd=%v lane %d window %d: weight[%d] = %v, reference %v",
							simd, l, ti, j, b.wOut[l][j], refW[l][ti][j])
					}
				}
				warm[l] = f
			}
		}
	}
}

// FuzzSIMDMatchesScalar feeds randomized batches — ragged lane counts,
// random window lengths, occasional NaN, zero-variance and collinear
// corruption, warm seeds of every flavor — through both dispatch tiers
// and requires bitwise-identical fits and weight rows. On hosts
// without AVX2 both tiers run scalar and the fuzz degenerates to a
// determinism check.
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
		cfg := DefaultMaronnaConfig()
		run := func(simd bool) ([]Fit, [][]float64) {
			b := newPairBatch(cfg, simd)
			b.begin(m, lanes)
			for l := 0; l < lanes; l++ {
				b.add(xs[l], ys[l], warms[l], nil, nil, l, nil)
			}
			b.run(nil)
			fits := append([]Fit(nil), b.fits[:lanes]...)
			ws := make([][]float64, lanes)
			for l := range ws {
				ws[l] = append([]float64(nil), b.wOut[l]...)
			}
			return fits, ws
		}
		sf, sw := run(false)
		vf, vw := run(true)
		for l := 0; l < lanes; l++ {
			if !fitsBitEqual(sf[l], vf[l]) {
				t.Fatalf("lane %d: scalar fit %+v, simd fit %+v", l, sf[l], vf[l])
			}
			for j := range sw[l] {
				if math.Float64bits(sw[l][j]) != math.Float64bits(vw[l][j]) {
					t.Fatalf("lane %d weight[%d]: scalar %v, simd %v", l, j, sw[l][j], vw[l][j])
				}
			}
		}
	})
}
