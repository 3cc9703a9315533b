package bench

import (
	"math"
	"sort"

	"marketminer/internal/stats"
)

// quantile is stats.Quantile (linear interpolation between order
// statistics) with 0 for an empty sample: a layer nothing was timed on
// reports 0.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// tailPerMille are the percentiles a latency report may quote: p50,
// p90, p99, p99.9.
var tailPerMille = []int{500, 900, 990, 999}

// HighestSupportedPercentile returns the largest of p50/p90/p99/p99.9
// that still has at least ten samples beyond it in a sample of size n
// (choosing-metrics §1); 0 when even the median has fewer.
func HighestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

// Quartiles returns Q1, Q2, Q3 as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method)
// computes them — the rule the driver applies to a set of runs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := append([]float64(nil), xs...)
	sort.Float64s(asc)
	n := len(asc)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return asc[0], asc[0], asc[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the inter-quartile distance of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
