package corr

import (
	"math"
	"math/rand"
	"testing"
)

// fitsBitEqual compares two Fits field-by-field with bitwise float
// equality, so NaN-poisoned lanes (where every statistic is NaN in
// both implementations) still compare equal.
func fitsBitEqual(a, b Fit) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return feq(a.T1, b.T1) && feq(a.T2, b.T2) &&
		feq(a.V11, b.V11) && feq(a.V22, b.V22) && feq(a.V12, b.V12) &&
		feq(a.Rho, b.Rho) &&
		a.Iters == b.Iters && a.Converged == b.Converged &&
		a.Valid == b.Valid && a.Seeded == b.Seeded
}

// TestBatchDegenerateLanesMatchReference is the degenerate-batch gate:
// a single batch mixing healthy, zero-variance, constant, perfectly
// collinear and NaN-poisoned pairs — plus warm lanes whose seeds are
// good, degenerate and poisoned — must produce, for every lane, a Fit
// and weight row bit-identical to running that pair alone through the
// per-pair reference, and the aggregate RobustStats must agree. This
// pins the swap-to-end compaction: lanes finishing at wildly different
// times (some before the first sweep) must not perturb each other.
func TestBatchDegenerateLanesMatchReference(t *testing.T) {
	const m = 60
	rng := rand.New(rand.NewSource(99))
	mk := func(corrupt func(x, y []float64)) (x, y []float64) {
		x = make([]float64, m)
		y = make([]float64, m)
		for i := range x {
			f := rng.NormFloat64()
			x[i] = f + 0.5*rng.NormFloat64()
			y[i] = f + 0.5*rng.NormFloat64()
		}
		if corrupt != nil {
			corrupt(x, y)
		}
		return x, y
	}

	type lane struct {
		name string
		x, y []float64
		warm *Fit
	}
	var lanes []lane

	// Healthy pair that converges normally.
	x0, y0 := mk(nil)
	lanes = append(lanes, lane{"healthy", x0, y0, nil})

	// Zero-variance x: the cold init's scale is 0, so the lane must
	// resolve to the empty Fit before the first sweep.
	x1, y1 := mk(func(x, y []float64) {
		for i := range x {
			x[i] = 0
		}
	})
	lanes = append(lanes, lane{"zero-variance-x", x1, y1, nil})

	// Constant (non-zero) y: same degenerate path, other series.
	x2, y2 := mk(func(x, y []float64) {
		for i := range y {
			y[i] = 0.0125
		}
	})
	lanes = append(lanes, lane{"constant-y", x2, y2, nil})

	// Perfectly collinear pair: the scatter determinant collapses and
	// the reference breaks out accepting the current state.
	x3, y3 := mk(func(x, y []float64) {
		copy(y, x)
	})
	lanes = append(lanes, lane{"collinear", x3, y3, nil})

	// NaN-poisoned pair: NaNs propagate through every pass, the
	// convergence test never fires, and the iteration budget runs out.
	// (The engines reject non-finite returns up front, so this path is
	// reachable only through the batch API itself — exactly why this
	// test drives pairBatch directly.)
	x4, y4 := mk(func(x, y []float64) {
		x[7] = math.NaN()
		y[41] = math.NaN()
	})
	lanes = append(lanes, lane{"nan-poisoned", x4, y4, nil})

	// Warm lane with a genuine previous fixed point (strict success).
	x5, y5 := mk(nil)
	est := NewMaronnaEstimator(DefaultMaronnaConfig())
	seed5, _ := est.FitScratch(x5[:m-1], y5[:m-1], nil, nil)
	if !seed5.Valid {
		t.Fatal("warm seed unexpectedly invalid")
	}
	lanes = append(lanes, lane{"warm-good", x5, y5, &seed5})

	// Warm lane whose seed has a singular scatter: the strict attempt
	// dies on the determinant check at iteration zero and must restart
	// cold in place.
	x6, y6 := mk(nil)
	bad := Fit{T1: 0, T2: 0, V11: 1, V22: 1, V12: 1, Valid: true}
	lanes = append(lanes, lane{"warm-singular", x6, y6, &bad})

	// Warm lane with a NaN-poisoned seed: strict pass wanders, budget
	// exhausts, cold restart must recover the same answer as alone.
	x7, y7 := mk(nil)
	poison := Fit{T1: math.NaN(), T2: 0, V11: 1, V22: 1, V12: 0, Valid: true}
	lanes = append(lanes, lane{"warm-nan-seed", x7, y7, &poison})

	// Reference: every pair alone through the per-pair kernel.
	wantFits := make([]Fit, len(lanes))
	wantW := make([][]float64, len(lanes))
	wantStats := &RobustStats{IterHist: make([]int, est.Config().MaxIter+1)}
	var sc *Scratch
	for i, ln := range lanes {
		var f Fit
		f, sc = est.FitScratchShared(ln.x, ln.y, sc, ln.warm, nil, nil)
		wantFits[i] = f
		wantW[i] = append([]float64(nil), sc.Weights()...)
		wantStats.record(f, ln.warm != nil && ln.warm.Valid)
	}

	// One batch holding every lane at once, in both insertion orders
	// (compaction reorders differently, results must not care) and
	// under both dispatch tiers (the vector path must survive the same
	// degeneracy zoo bit-for-bit; on hosts without AVX2 both passes run
	// scalar, which is still a valid run of the contract).
	for _, simd := range []bool{false, true} {
		for _, reverse := range []bool{false, true} {
			b := newPairBatch(est.Config(), simd)
			b.begin(m, len(lanes))
			st := &RobustStats{IterHist: make([]int, est.Config().MaxIter+1)}
			for i := range lanes {
				ln := lanes[i]
				if reverse {
					ln = lanes[len(lanes)-1-i]
				}
				tag := i
				if reverse {
					tag = len(lanes) - 1 - i
				}
				b.add(ln.x, ln.y, ln.warm, nil, nil, tag, st)
			}
			b.run(st)

			for i, ln := range lanes {
				if !fitsBitEqual(b.fits[i], wantFits[i]) {
					t.Fatalf("simd=%v reverse=%v lane %q: batch fit %+v, reference %+v", simd, reverse, ln.name, b.fits[i], wantFits[i])
				}
				for j := range wantW[i] {
					if math.Float64bits(b.wOut[i][j]) != math.Float64bits(wantW[i][j]) {
						t.Fatalf("simd=%v reverse=%v lane %q: weight[%d] = %v, reference %v", simd, reverse, ln.name, j, b.wOut[i][j], wantW[i][j])
					}
				}
			}
			if st.Windows != wantStats.Windows || st.WarmHits != wantStats.WarmHits ||
				st.ColdStarts != wantStats.ColdStarts || st.Fallbacks != wantStats.Fallbacks {
				t.Fatalf("simd=%v reverse=%v: stats %+v, reference %+v", simd, reverse, *st, *wantStats)
			}
			for i := range wantStats.IterHist {
				if st.IterHist[i] != wantStats.IterHist[i] {
					t.Fatalf("simd=%v reverse=%v: IterHist[%d] = %d, reference %d", simd, reverse, i, st.IterHist[i], wantStats.IterHist[i])
				}
			}
		}
	}
}
