// Package corr implements the correlation measures and the parallel
// sliding-window correlation engine at the core of MarketMiner.
//
// The paper compares three measures: the classical Pearson coefficient,
// the robust Maronna M-estimator of bivariate scatter (Maronna 1976,
// parallelised in Chilson et al. 2006), and a "Combined" measure. The
// engine computes, for every unordered pair of a stock universe and
// every grid interval s ≥ M, the correlation of the last M log-returns
// — "the enabling aspect of this market-wide strategy is the ability to
// quickly compute a large correlation matrix using a sliding window of
// recent data points".
package corr

import (
	"fmt"
	"math"
	"strings"
)

// Type identifies a correlation measure (the paper's Ctype treatment).
type Type int

// The three treatments of the paper's Section V experiment.
const (
	Pearson Type = iota
	Maronna
	Combined
)

// Types lists all measures in canonical order.
func Types() []Type { return []Type{Pearson, Maronna, Combined} }

// String returns the measure name as printed in Tables III–V.
func (t Type) String() string {
	switch t {
	case Pearson:
		return "Pearson"
	case Maronna:
		return "Maronna"
	case Combined:
		return "Combined"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a case-insensitive measure name.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "pearson":
		return Pearson, nil
	case "maronna":
		return Maronna, nil
	case "combined":
		return Combined, nil
	default:
		return 0, fmt.Errorf("corr: unknown correlation type %q", s)
	}
}

// PearsonCorr returns the Pearson product-moment correlation of x and
// y, which must have equal positive length. Degenerate inputs (zero
// variance) yield 0, the convention used throughout the engine: an
// untradeable pair rather than a NaN that would poison downstream
// statistics.
func PearsonCorr(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	fn := float64(n)
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0
	}
	c := (sxy - sx*sy/fn) / math.Sqrt(vx*vy)
	return clampCorr(c)
}

// WeightedPearson returns the weighted Pearson correlation of x and y
// under observation weights w (w_i ≥ 0, not all zero). It backs the
// Combined measure, which reuses the Maronna robustness weights to
// down-weight outlying observations inside an otherwise classical
// estimator.
func WeightedPearson(x, y, w []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) || n != len(w) {
		return 0
	}
	var sw, sx, sy float64
	for i := 0; i < n; i++ {
		sw += w[i]
		sx += w[i] * x[i]
		sy += w[i] * y[i]
	}
	if sw <= 0 {
		return 0
	}
	mx, my := sx/sw, sy/sw
	var vx, vy, cxy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		vx += w[i] * dx * dx
		vy += w[i] * dy * dy
		cxy += w[i] * dx * dy
	}
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return clampCorr(cxy / math.Sqrt(vx*vy))
}

// clampCorr forces rounding residue back into [-1, 1].
func clampCorr(c float64) float64 {
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	if math.IsNaN(c) {
		return 0
	}
	return c
}
