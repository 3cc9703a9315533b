package backtest

import (
	"math"

	"marketminer/internal/corr"
	"marketminer/internal/stats"
)

// Aggregate is one population of Section V: a per-pair performance
// value averaged over the 14 non-treatment parameter levels for a
// single correlation treatment, plus its descriptive statistics
// (a Table III/IV/V row set) and box-plot summary (a Figure 2 box).
type Aggregate struct {
	Type corr.Type
	// PerPair[p] is the pair-p sample value (e.g. average cumulative
	// monthly return); NaN entries are excluded from Stats/Box and
	// counted in Dropped.
	PerPair []float64
	Stats   stats.Describe
	Box     stats.BoxPlot
	Dropped int
}

// finalize computes the stats over the finite entries of PerPair.
func (a *Aggregate) finalize() {
	clean := make([]float64, 0, len(a.PerPair))
	for _, v := range a.PerPair {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			a.Dropped++
			continue
		}
		clean = append(clean, v)
	}
	a.Stats = stats.DescribeSample(clean)
	if len(clean) > 0 {
		if bp, err := stats.BoxPlotStats(clean); err == nil {
			a.Box = bp
		}
	}
}

// perPairMean averages measure(pair, flatParamIdx) over the levels of
// one treatment, skipping non-finite values; if every level is
// non-finite the pair's entry is NaN.
func (r *Result) perPairMean(typeIdx int, measure func(pair, param int) float64) []float64 {
	out := make([]float64, r.NumPairs())
	for p := range out {
		var sum float64
		var n int
		for li := range r.Levels {
			v := measure(p, r.ParamIndex(typeIdx, li))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			out[p] = math.NaN()
		} else {
			out[p] = sum / float64(n)
		}
	}
	return out
}

// aggregate builds one Aggregate per correlation treatment.
func (r *Result) aggregate(measure func(pair, param int) float64) []Aggregate {
	out := make([]Aggregate, len(r.Types))
	for ti, ct := range r.Types {
		a := Aggregate{Type: ct, PerPair: r.perPairMean(ti, measure)}
		a.finalize()
		out[ti] = a
	}
	return out
}

// CumulativeMonthlyReturns reproduces Table III: the per-pair average
// (over parameter levels) of the total cumulative return r_p^k,
// reported — like the paper — as a gross multiplier (+1, so 1.0 means
// flat), per correlation treatment.
func (r *Result) CumulativeMonthlyReturns() []Aggregate {
	return r.aggregate(func(p, k int) float64 {
		return r.Series[p][k].TotalCumulative() + 1
	})
}

// MaxDailyDrawdowns reproduces Table IV: the per-pair average of the
// Equation (7) maximum daily drawdown, as a fraction (Table IV prints
// it in percent).
func (r *Result) MaxDailyDrawdowns() []Aggregate {
	return r.aggregate(func(p, k int) float64 {
		return r.Series[p][k].MaxDailyDrawdown()
	})
}

// WinLossRatios reproduces Table V: the per-pair average of the
// Equation (8) win–loss ratio. Parameter sets whose ratio is undefined
// (no losing trades) are skipped in the per-pair average, mirroring
// how a ratio estimate is only defined for pairs that actually traded
// both ways.
func (r *Result) WinLossRatios() []Aggregate {
	return r.aggregate(func(p, k int) float64 {
		return r.Series[p][k].WinLossRatio()
	})
}
