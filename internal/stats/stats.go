// Package stats provides the descriptive statistics used throughout the
// MarketMiner pair-trading reproduction: central moments, robust order
// statistics and box-plot summaries (Figure 2 of the paper).
//
// All functions operate on float64 slices and are allocation-free unless
// documented otherwise. NaN handling follows the rule "garbage in,
// garbage out": callers are expected to clean inputs first (the paper
// cleans ticks before any statistics are computed).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for samples of size < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs without modifying it.
// It returns 0 for an empty sample.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Skewness returns the sample skewness (adjusted Fisher–Pearson, the
// g1 estimator scaled for bias) of xs. The paper reports skewness of the
// per-pair averaged performance measures (Tables III–V). Returns 0 for
// samples of size < 3 or zero variance.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return math.Sqrt(n*(n-1)) / (n - 2) * g1
}

// Kurtosis returns the (non-excess) sample kurtosis of xs, i.e. the
// fourth standardized moment; a normal distribution has kurtosis 3,
// matching the convention in the paper's Tables III–V (values near 3
// for the win–loss ratio). Returns 0 for samples of size < 2 or zero
// variance.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}

// SharpeRatio returns r̄/σ̂ as defined in Section V of the paper
// (SR = r̄ / sqrt(σ̂²)), where r̄ is the mean and σ̂² the sample variance
// of the returns. It returns +Inf when the variance is zero and the
// mean positive, -Inf when negative, and 0 when both are zero.
func SharpeRatio(returns []float64) float64 {
	m := Mean(returns)
	sd := StdDev(returns)
	if sd == 0 {
		switch {
		case m > 0:
			return math.Inf(1)
		case m < 0:
			return math.Inf(-1)
		default:
			return 0
		}
	}
	return m / sd
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the Matlab/R default,
// matching the environment the paper's box plots were produced in).
// It returns an error for an empty sample or out-of-range q.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range [0,1]")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return quantileSorted(cp, q), nil
}

// quantileSorted computes a type-7 quantile over an already-sorted
// sample.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the minimum and maximum of xs. It returns an error for
// an empty sample.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Describe bundles the descriptive statistics reported in Tables III–V
// of the paper for one population (one correlation type).
type Describe struct {
	N        int
	Mean     float64
	Median   float64
	StdDev   float64
	Sharpe   float64 // mean / stddev, Section V definition
	Skewness float64
	Kurtosis float64
	Min      float64
	Max      float64
}

// DescribeSample computes the Table III–V row statistics for xs.
func DescribeSample(xs []float64) Describe {
	d := Describe{
		N:        len(xs),
		Mean:     Mean(xs),
		Median:   Median(xs),
		StdDev:   StdDev(xs),
		Sharpe:   SharpeRatio(xs),
		Skewness: Skewness(xs),
		Kurtosis: Kurtosis(xs),
	}
	if len(xs) > 0 {
		d.Min, d.Max, _ = MinMax(xs)
	}
	return d
}

// BoxPlot holds the five-number summary plus outliers, exactly the
// information rendered in Figure 2 of the paper: "the central mark is
// the median, the edges of the box are the 25th and 75th percentiles,
// the whiskers extend to the most extreme data points not considered
// outliers, and outliers are plotted individually".
type BoxPlot struct {
	Median      float64
	Q1, Q3      float64
	IQR         float64
	WhiskerLow  float64 // most extreme datum ≥ Q1 - 1.5·IQR
	WhiskerHigh float64 // most extreme datum ≤ Q3 + 1.5·IQR
	Outliers    []float64
	NumLow      int // outliers below the low whisker
	NumHigh     int // outliers above the high whisker
	N           int
}

// BoxPlotStats computes the Figure-2 box-plot summary of xs using the
// standard 1.5·IQR whisker rule (Matlab's boxplot default). It returns
// an error for an empty sample.
func BoxPlotStats(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	bp := BoxPlot{N: len(cp)}
	bp.Median = quantileSorted(cp, 0.5)
	bp.Q1 = quantileSorted(cp, 0.25)
	bp.Q3 = quantileSorted(cp, 0.75)
	bp.IQR = bp.Q3 - bp.Q1
	loFence := bp.Q1 - 1.5*bp.IQR
	hiFence := bp.Q3 + 1.5*bp.IQR
	bp.WhiskerLow = bp.Q3
	bp.WhiskerHigh = bp.Q1
	first := true
	for _, x := range cp {
		if x < loFence {
			bp.Outliers = append(bp.Outliers, x)
			bp.NumLow++
			continue
		}
		if x > hiFence {
			bp.Outliers = append(bp.Outliers, x)
			bp.NumHigh++
			continue
		}
		if first {
			bp.WhiskerLow = x
			first = false
		}
		bp.WhiskerHigh = x
	}
	if first {
		// Degenerate: every point is an outlier (cannot happen with
		// the 1.5·IQR rule since the quartiles themselves are within
		// the fences, but keep the invariant explicit).
		bp.WhiskerLow = bp.Median
		bp.WhiskerHigh = bp.Median
	}
	return bp, nil
}
