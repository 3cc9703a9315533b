package corr

import (
	"math"
)

// MaronnaConfig tunes the bivariate Maronna M-estimator iteration.
type MaronnaConfig struct {
	// K is the Huber tuning constant on the Mahalanobis distance d.
	// Observations with d ≤ K get full weight; beyond K the weight
	// decays as K/d (location) and K²/d² (scatter), giving the smooth
	// down-weighting of outliers the paper relies on.
	K float64
	// MaxIter bounds the fixed-point iteration.
	MaxIter int
	// Tol is the convergence threshold on the relative change of the
	// scatter matrix between iterations.
	Tol float64
}

// DefaultMaronnaConfig uses K = 2.0 (≈ 95th percentile of a bivariate
// normal's Mahalanobis distance is 2.45; 2.0 trims a bit harder, which
// suits contaminated tick data), 50 iterations and 1e-8 tolerance.
func DefaultMaronnaConfig() MaronnaConfig {
	return MaronnaConfig{K: 2.0, MaxIter: 50, Tol: 1e-8}
}

// MaronnaEstimator computes the robust correlation coefficient via
// Maronna's M-estimator of bivariate location and scatter. The
// estimator iterates
//
//	t   = Σ w1(dᵢ)·xᵢ / Σ w1(dᵢ)
//	V   = (1/n) Σ w2(dᵢ²)·(xᵢ−t)(xᵢ−t)ᵀ
//	dᵢ² = (xᵢ−t)ᵀ V⁻¹ (xᵢ−t)
//
// with Huber weights w1(d) = min(1, K/d), w2(d²) = min(1, K²/d²), then
// reads the correlation off the scatter matrix, ρ = V₁₂/√(V₁₁V₂₂).
// Because correlation is scale-free, the usual consistency constant on
// V cancels and is omitted.
//
// The zero value is not usable; construct with NewMaronnaEstimator.
// The estimator itself is stateless between calls and safe for
// concurrent use; scratch space is allocated per call (the engine
// amortises this with per-worker scratch buffers via CorrScratch).
type MaronnaEstimator struct {
	cfg MaronnaConfig
}

// NewMaronnaEstimator validates and captures cfg.
func NewMaronnaEstimator(cfg MaronnaConfig) *MaronnaEstimator {
	if cfg.K <= 0 {
		cfg.K = 2.0
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 50
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-8
	}
	return &MaronnaEstimator{cfg: cfg}
}

// Config returns the estimator's (validated) configuration.
func (e *MaronnaEstimator) Config() MaronnaConfig { return e.cfg }

// Corr returns the Maronna coefficient of x and y, cold-started.
func (e *MaronnaEstimator) Corr(x, y []float64) float64 {
	c, _ := e.CorrScratch(x, y, nil)
	return c
}

// Scratch holds reusable per-worker buffers for the iteration.
type Scratch struct {
	w    []float64 // final per-observation scatter weights
	sbuf []float64 // selection buffer for medians
}

// Weights returns the per-observation weights of the last fit (valid
// until the next call). The Combined estimator feeds them into a
// weighted Pearson computation.
func (s *Scratch) Weights() []float64 { return s.w }

// Fit is the result of one Maronna estimation: the location/scatter
// state the iteration converged to, the correlation read off it, and
// bookkeeping about how the fit was obtained. A converged Fit is
// reusable as the warm seed for the next overlapping window of the
// same pair (consecutive sliding windows share m−1 of m points, so the
// previous fixed point is an excellent initial iterate).
type Fit struct {
	T1, T2        float64 // robust location
	V11, V22, V12 float64 // robust scatter
	Rho           float64 // correlation coefficient in [-1, 1]
	Iters         int     // fixed-point iterations executed
	Converged     bool    // tolerance reached within MaxIter
	Seeded        bool    // produced by a warm-started run
	Valid         bool    // T/V usable as a warm seed for the next window
}

// CorrScratch computes the Maronna correlation using (and growing) the
// provided scratch buffers; pass nil to allocate fresh ones. It returns
// the coefficient and the scratch for reuse. Always a cold start; the
// sliding-window engines use FitScratch to chain warm starts.
func (e *MaronnaEstimator) CorrScratch(x, y []float64, sc *Scratch) (float64, *Scratch) {
	f, sc := e.FitScratch(x, y, sc, nil)
	return f.Rho, sc
}

// ColdInit is the univariate robust initialiser of one series: median
// location and MAD scale (with the standard-deviation fallback for
// samples that are more than half ties). It is a pure function of the
// series, so the matrix engine computes it once per stock per window
// and shares it across every pair containing that stock instead of
// re-deriving it inside each pair's cold start. Scale == 0 marks a
// genuinely constant series, for which no correlation is defined.
type ColdInit struct {
	Med   float64
	Scale float64
}

// ColdInitOf computes the cold-start initialiser of x using buf (len ≥
// len(x)) as selection scratch. The values are bit-identical to the
// ones FitScratch derives internally.
func ColdInitOf(buf, x []float64) ColdInit {
	t := medianInto(buf, x)
	s := madInto(buf, x, t)
	if s == 0 {
		s = tinyScale(x, t)
	}
	return ColdInit{Med: t, Scale: s}
}

// FitScratch computes the Maronna fit of (x, y). When warm points to a
// Valid previous fit (typically the converged fit of the overlapping
// previous window), the iteration starts from that location/scatter
// instead of the O(m) median/MAD initialisation, which both skips the
// selection work and cuts the iteration count to the few steps needed
// to absorb the one-point window change. A warm run that fails to
// converge cleanly (scatter collapse or iteration budget exhausted)
// falls back to the classic cold start, so warm starting never changes
// which fixed point is reported — only how fast it is reached.
func (e *MaronnaEstimator) FitScratch(x, y []float64, sc *Scratch, warm *Fit) (Fit, *Scratch) {
	return e.FitScratchShared(x, y, sc, warm, nil, nil)
}

// FitScratchShared is FitScratch with the cold-start initialisers
// precomputed: ix and iy, when non-nil, must be ColdInitOf(·, x) and
// ColdInitOf(·, y) for exactly these windows. The matrix engine hoists
// them out of the per-pair loop (one per stock per window instead of
// one per pair per window); passing nil recovers the classic inline
// computation, which produces bit-identical values.
func (e *MaronnaEstimator) FitScratchShared(x, y []float64, sc *Scratch, warm *Fit, ix, iy *ColdInit) (Fit, *Scratch) {
	n := len(x)
	if sc == nil {
		sc = &Scratch{}
	}
	if n == 0 || n != len(y) {
		sc.w = sc.w[:0]
		return Fit{}, sc
	}
	if cap(sc.w) < n {
		sc.w = make([]float64, n)
		sc.sbuf = make([]float64, n)
	}
	sc.w = sc.w[:n]
	sc.sbuf = sc.sbuf[:n]
	for i := range sc.w {
		sc.w[i] = 1
	}

	if warm != nil && warm.Valid {
		if f, ok := e.iterate(x, y, sc, warm.T1, warm.T2, warm.V11, warm.V22, warm.V12, true); ok {
			f.Seeded = true
			return f, sc
		}
		// The strict run may have left partial weights behind; restore
		// the all-ones state the cold path starts from so degenerate
		// cold exits keep their classic Combined semantics.
		for i := range sc.w {
			sc.w[i] = 1
		}
	}

	// Robust initialisation: coordinate-wise median location and
	// MAD-based diagonal scatter with zero cross-scatter, shared across
	// pairs when the caller precomputed it.
	var i1, i2 ColdInit
	if ix != nil {
		i1 = *ix
	} else {
		i1 = ColdInitOf(sc.sbuf, x)
	}
	if iy != nil {
		i2 = *iy
	} else {
		i2 = ColdInitOf(sc.sbuf, y)
	}
	if i1.Scale == 0 || i2.Scale == 0 {
		// A genuinely constant series has no defined correlation.
		return Fit{}, sc
	}
	f, _ := e.iterate(x, y, sc, i1.Med, i2.Med, i1.Scale*i1.Scale, i2.Scale*i2.Scale, 0, false)
	return f, sc
}

// iterate runs the Maronna fixed-point loop from the given initial
// location/scatter. In strict mode (warm starts) any scatter collapse
// or exhaustion of the iteration budget returns ok = false so the
// caller can rerun cold; in non-strict mode (cold starts) it
// reproduces the classic behaviour — break on collapse and accept the
// final state.
//
// The plain fixed-point map contracts only linearly (rate ≈ 0.4 on
// typical return windows, so ~20 steps to Tol = 1e-8), which makes the
// iteration count — not the per-step O(m) passes — the dominant cost.
// iterate therefore applies safeguarded Anderson(1)/Aitken
// extrapolation across consecutive steps: the mixing parameter is the
// least-squares fit of the last two residuals, and an extrapolated
// state is used only when it keeps the scatter positive definite
// (otherwise the plain update proceeds unchanged). Convergence is
// still declared on the residual of the plain map, so the accepted
// fixed point satisfies the same tolerance as the unaccelerated loop.
func (e *MaronnaEstimator) iterate(x, y []float64, sc *Scratch, t1, t2, v11, v22, v12 float64, strict bool) (Fit, bool) {
	n := len(x)
	k := e.cfg.K
	k2 := k * k
	converged := false
	iters := 0
	// Previous step's map output and residual for the extrapolation.
	var pg, pf [5]float64
	havePrev := false
	for iter := 0; iter < e.cfg.MaxIter; iter++ {
		det := v11*v22 - v12*v12
		if det <= 0 || v11 <= 0 || v22 <= 0 {
			// Scatter collapsed (perfectly dependent or degenerate
			// sample): read the correlation off the current V.
			if strict {
				return Fit{}, false
			}
			break
		}
		iters = iter + 1
		// Inverse of the 2x2 scatter.
		i11 := v22 / det
		i22 := v11 / det
		i12 := -v12 / det

		// Location step with Huber w1.
		var sw, sx, sy float64
		for i := 0; i < n; i++ {
			dx, dy := x[i]-t1, y[i]-t2
			d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
			w := 1.0
			if d2 > k2 {
				w = k / math.Sqrt(d2)
			}
			sw += w
			sx += w * x[i]
			sy += w * y[i]
		}
		if sw == 0 {
			if strict {
				return Fit{}, false
			}
			break
		}
		t1n, t2n := sx/sw, sy/sw

		// Scatter step with Huber w2.
		var n11, n22, n12 float64
		for i := 0; i < n; i++ {
			dx, dy := x[i]-t1n, y[i]-t2n
			d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
			w := 1.0
			if d2 > k2 {
				w = k2 / d2
			}
			sc.w[i] = w
			n11 += w * dx * dx
			n22 += w * dy * dy
			n12 += w * dx * dy
		}
		fn := float64(n)
		n11 /= fn
		n22 /= fn
		n12 /= fn

		// Relative change of the scatter for the stopping rule.
		den := math.Abs(v11) + math.Abs(v22) + math.Abs(v12)
		num := math.Abs(n11-v11) + math.Abs(n22-v22) + math.Abs(n12-v12)
		g := [5]float64{t1n, t2n, n11, n22, n12}
		f := [5]float64{t1n - t1, t2n - t2, n11 - v11, n22 - v22, n12 - v12}
		t1, t2 = t1n, t2n
		v11, v22, v12 = n11, n22, n12
		if den > 0 && num/den < e.cfg.Tol {
			converged = true
			break
		}

		// Anderson(1) extrapolation from the last two plain steps.
		if havePrev {
			var fd, dd float64
			for c := 0; c < 5; c++ {
				d := f[c] - pf[c]
				fd += f[c] * d
				dd += d * d
			}
			if dd > 0 {
				if theta := fd / dd; math.Abs(theta) < 16 {
					a1 := t1n - theta*(t1n-pg[0])
					a2 := t2n - theta*(t2n-pg[1])
					a11 := n11 - theta*(n11-pg[2])
					a22 := n22 - theta*(n22-pg[3])
					a12 := n12 - theta*(n12-pg[4])
					// Safeguard: extrapolate only onto a usable scatter.
					if a11 > 0 && a22 > 0 && a11*a22-a12*a12 > 0 {
						t1, t2 = a1, a2
						v11, v22, v12 = a11, a22, a12
					}
				}
			}
		}
		pg, pf = g, f
		havePrev = true
	}
	if strict && !converged {
		return Fit{}, false
	}
	f := Fit{T1: t1, T2: t2, V11: v11, V22: v22, V12: v12, Iters: iters, Converged: converged}
	if v11 <= 0 || v22 <= 0 {
		return f, false
	}
	f.Rho = clampCorr(v12 / math.Sqrt(v11*v22))
	// Only cleanly converged scatters seed the next window: a collapsed
	// or budget-exhausted state would poison the warm chain.
	f.Valid = converged && v11*v22-v12*v12 > 0
	return f, true
}

// medianInto computes the median of xs using buf as selection space.
func medianInto(buf, xs []float64) float64 {
	buf = buf[:len(xs)]
	copy(buf, xs)
	return medianSelect(buf)
}

// madInto computes the median absolute deviation about center, scaled
// by 1.4826 for consistency at the normal.
func madInto(buf, xs []float64, center float64) float64 {
	buf = buf[:len(xs)]
	for i, x := range xs {
		buf[i] = math.Abs(x - center)
	}
	return 1.4826 * medianSelect(buf)
}

// tinyScale falls back to the standard deviation when the MAD is zero
// (more than half the sample identical — common for illiquid stocks
// whose BAM does not move every interval).
func tinyScale(xs []float64, center float64) float64 {
	var ss float64
	for _, x := range xs {
		d := x - center
		ss += d * d
	}
	if len(xs) == 0 {
		return 0
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CombinedEstimator implements the paper's third treatment. The paper
// never defines "Combined" formally; our interpretation (documented in
// DESIGN.md) is the average of the Maronna coefficient and a Pearson
// coefficient computed under Maronna's final robustness weights. Both
// halves are outlier-resistant, so the measure is more conservative
// (lower dispersion) than raw Pearson — matching the qualitative role
// Combined plays in the paper's results.
type CombinedEstimator struct {
	m *MaronnaEstimator
}

// NewCombinedEstimator builds a Combined estimator over the given
// Maronna configuration.
func NewCombinedEstimator(cfg MaronnaConfig) *CombinedEstimator {
	return &CombinedEstimator{m: NewMaronnaEstimator(cfg)}
}

// Corr returns the Combined coefficient of x and y, cold-started.
func (e *CombinedEstimator) Corr(x, y []float64) float64 {
	c, _ := e.CorrScratch(x, y, nil)
	return c
}

// CorrScratch computes the Combined coefficient with reusable scratch.
func (e *CombinedEstimator) CorrScratch(x, y []float64, sc *Scratch) (float64, *Scratch) {
	f, sc := e.m.FitScratch(x, y, sc, nil)
	return CombinedFromFit(x, y, f.Rho, sc.w), sc
}

// CombinedFromFit derives the Combined coefficient from an
// already-computed Maronna fit: the 50/50 blend of the robust
// coefficient and the Pearson coefficient under the fit's robustness
// weights. The sliding-window engines use it to serve the Combined
// treatment from the Maronna treatment's fit instead of re-running the
// full M-estimation — the fits for the identical (pair, M, window) are
// the same, so robust work is done once per window, not twice.
func CombinedFromFit(x, y []float64, maronnaRho float64, w []float64) float64 {
	if len(w) != len(x) {
		return maronnaRho
	}
	wp := WeightedPearson(x, y, w)
	return clampCorr((maronnaRho + wp) / 2)
}
