// Package metrics implements the trading-performance measures of
// Section IV of the paper, Equations (1)–(9): cumulative returns
// (daily, total, and aggregated over pairs or parameter sets), maximum
// drawdown, and the win–loss ratio, plus the equity-curve helper they
// share. The formulas follow the high-frequency finance evaluation
// methodology the paper adapts from Dacorogna et al.
//
// The performance functions are pure: given the same return sets they
// produce the same statistics, bit for bit, with no package state —
// they sit on the deterministic (replayable) side of the codebase.
// The package's second face, the operational counters in ops.go, is
// deliberately the opposite: process-global named monotonic counters
// (feed evictions, supervisor restarts, broker fencing rejections,
// farm zombie results) that hot paths bump with one atomic add.
// Observability never feeds back into computation — no kernel or
// strategy decision may read a counter — so the bit-identity
// guarantees elsewhere are unaffected by what is being measured.
package metrics

import (
	"math"
)

// Compound returns Π(1+rᵢ) − 1, the compounding operator behind
// Equations (2)–(5): it is the daily cumulative return when applied to
// one day's trade returns, the total cumulative return when applied to
// daily cumulative returns, and the pair/parameter aggregate when
// applied across Φ or K. An empty input compounds to 0.
func Compound(returns []float64) float64 {
	prod := 1.0
	for _, r := range returns {
		prod *= 1 + r
	}
	return prod - 1
}

// DailyCumulative implements Equation (2): the within-day cumulative
// return r_p^{t,k} from the day's ordered trade returns.
func DailyCumulative(tradeReturns []float64) float64 { return Compound(tradeReturns) }

// TotalCumulative implements Equation (3): the whole-period cumulative
// return r_p^k from per-day cumulative returns. The same function
// serves Equations (4) and (5), which compound across pairs and
// parameter sets respectively.
func TotalCumulative(dailyCumulative []float64) float64 { return Compound(dailyCumulative) }

// EquityCurve returns the running cumulative return after each entry
// of returns: curve[q] = Π_{i≤q}(1+rᵢ) − 1.
func EquityCurve(returns []float64) []float64 {
	out := make([]float64, len(returns))
	prod := 1.0
	for i, r := range returns {
		prod *= 1 + r
		out[i] = prod - 1
	}
	return out
}

// MaxDrawdown implements Equations (6)/(7): the worst peak-to-valley
// drop of the running cumulative return, max over qa ≤ qb of
// (r_{qa} − r_{qb}). Applied to per-trade returns it is the trade-level
// MDD of Equation (6); applied to daily cumulative returns it is the
// daily MDD of Equation (7) reported in Table IV. The result is ≥ 0;
// it is 0 for monotonically rising equity or fewer than 2 returns.
func MaxDrawdown(returns []float64) float64 {
	if len(returns) < 2 {
		return 0
	}
	curve := EquityCurve(returns)
	peak := curve[0]
	var mdd float64
	for _, v := range curve[1:] {
		if v > peak {
			peak = v
			continue
		}
		if d := peak - v; d > mdd {
			mdd = d
		}
	}
	return mdd
}

// WinLossCounts implements the numerator and denominator of Equations
// (8)/(9): the number of strictly positive and strictly negative trade
// returns. Zero returns count as neither, per the paper's strict
// inequalities.
func WinLossCounts(returns []float64) (wins, losses int) {
	for _, r := range returns {
		if r > 0 {
			wins++
		} else if r < 0 {
			losses++
		}
	}
	return wins, losses
}

// WinLossRatio returns W/L per Equations (8)/(9). By convention it
// returns +Inf for wins with no losses, and 0 when there are no wins.
func WinLossRatio(returns []float64) float64 {
	w, l := WinLossCounts(returns)
	if l == 0 {
		if w == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(w) / float64(l)
}

// PairParamSeries holds the return set R_p^k of one (pair, parameter
// set) combination across the trading period: Daily[t] is the ordered
// list of trade returns realised on day t (Equation (1) is the union
// of these). It is the unit of storage the backtester produces.
type PairParamSeries struct {
	Daily [][]float64
}

// NumTrades returns |R_p^k|.
func (s *PairParamSeries) NumTrades() int {
	var n int
	for _, day := range s.Daily {
		n += len(day)
	}
	return n
}

// Flat returns all trade returns in day-then-trade order (the ordered
// form of Equation (1)).
func (s *PairParamSeries) Flat() []float64 {
	out := make([]float64, 0, s.NumTrades())
	for _, day := range s.Daily {
		out = append(out, day...)
	}
	return out
}

// DailyCumulatives applies Equation (2) to every day, returning the
// r_p^{t,k} series (days with no trades contribute 0).
func (s *PairParamSeries) DailyCumulatives() []float64 {
	out := make([]float64, len(s.Daily))
	for t, day := range s.Daily {
		out[t] = DailyCumulative(day)
	}
	return out
}

// TotalCumulative applies Equation (3): the period cumulative return.
func (s *PairParamSeries) TotalCumulative() float64 {
	return TotalCumulative(s.DailyCumulatives())
}

// MaxDailyDrawdown applies Equation (7): the worst peak-to-valley drop
// of the cumulative return measured at daily granularity.
func (s *PairParamSeries) MaxDailyDrawdown() float64 {
	return MaxDrawdown(s.DailyCumulatives())
}

// WinLossRatio applies Equation (8) over the whole period.
func (s *PairParamSeries) WinLossRatio() float64 {
	return WinLossRatio(s.Flat())
}
