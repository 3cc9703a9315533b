// Package series provides the time-series substrate of the
// reproduction: the ∆s interval grid, bid-ask-midpoint (BAM) price
// sampling, 1-period log-returns, sliding return windows, and OHLC bar
// accumulation (the "OHLC Bar Accumulator" node of Figure 1).
//
// All strategy-visible quantities in the paper live on a discrete time
// grid indexed by s = 0..smax-1, where each index covers ∆s seconds of
// the 23400-second trading day.
package series

import (
	"errors"
	"fmt"
	"math"

	"marketminer/internal/taq"
)

// Grid describes the paper's discretisation of a trading day: with
// ∆s = 30 s there are exactly 23400/30 = 780 intervals.
type Grid struct {
	DeltaS int // interval length in seconds
	SMax   int // number of intervals in the day
}

// NewGrid builds a grid for the given ∆s (seconds). ∆s must be positive
// and divide the trading day evenly, as in the paper's example.
func NewGrid(deltaS int) (Grid, error) {
	if deltaS <= 0 {
		return Grid{}, errors.New("series: ∆s must be positive")
	}
	if taq.TradingDaySec%deltaS != 0 {
		return Grid{}, fmt.Errorf("series: ∆s=%d does not divide the %d-second trading day", deltaS, taq.TradingDaySec)
	}
	return Grid{DeltaS: deltaS, SMax: taq.TradingDaySec / deltaS}, nil
}

// Index returns the grid interval containing the given seconds-since-
// open timestamp, and whether the timestamp is inside the session.
func (g Grid) Index(seqTime float64) (int, bool) {
	if seqTime < 0 || seqTime >= taq.TradingDaySec {
		return 0, false
	}
	return int(seqTime) / g.DeltaS, true
}

// PriceGrid holds the per-interval BAM price level for every stock of a
// universe over one trading day: P[i][s] is stock i's price at the end
// of interval s. Intervals with no quote are forward-filled from the
// previous level; leading intervals before a stock's first quote hold
// NaN and the consumer is expected to wait until all stocks have
// printed (the paper's correlations only start at s ≥ M anyway).
type PriceGrid struct {
	Grid   Grid
	Prices [][]float64 // [stock][interval]
}

// Price returns P_i(s).
func (pg *PriceGrid) Price(i, s int) float64 { return pg.Prices[i][s] }

// Spread returns the price spread P_i(s) − P_j(s) used by the
// retracement logic of §III step 5.
func (pg *PriceGrid) Spread(i, j, s int) float64 {
	return pg.Prices[i][s] - pg.Prices[j][s]
}

// FirstComplete returns the first interval index at which every stock
// has a defined (non-NaN) price, or -1 if no such interval exists.
func (pg *PriceGrid) FirstComplete() int {
	if len(pg.Prices) == 0 {
		return -1
	}
	for s := 0; s < pg.Grid.SMax; s++ {
		ok := true
		for i := range pg.Prices {
			if math.IsNaN(pg.Prices[i][s]) {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return -1
}

// RowSampler is the forward-fill sampling rule for one stock's price
// row: row[s] is the BAM of the stock's last quote with timestamp
// before (s+1)·∆s, and NaN before its first quote. Each interval is
// written once, when a quote of a later interval or Finish closes it,
// so the row depends on this stock's quotes alone.
type RowSampler struct {
	grid Grid
	row  []float64
	lvl  float64 // carried level: BAM of the latest quote, NaN before the first
	next int     // first interval not yet written
}

// NewRowSampler samples into row, which must hold grid.SMax prices.
func NewRowSampler(grid Grid, row []float64) RowSampler {
	return RowSampler{grid: grid, row: row[:grid.SMax], lvl: math.NaN()}
}

// Add incorporates one quote of the row's stock. Quotes must arrive in
// non-decreasing SeqTime order; out-of-session quotes are ignored and
// reported via the return value.
func (rs *RowSampler) Add(q taq.Quote) bool {
	s, ok := rs.grid.Index(q.SeqTime)
	if !ok {
		return false
	}
	rs.fillThrough(s)
	rs.lvl = q.Mid()
	return true
}

// fillThrough closes intervals next..s-1 with the carried level.
func (rs *RowSampler) fillThrough(s int) {
	for ; rs.next < s; rs.next++ {
		rs.row[rs.next] = rs.lvl
	}
}

// Finish closes all remaining intervals and returns the completed row.
func (rs *RowSampler) Finish() []float64 {
	rs.fillThrough(rs.grid.SMax)
	return rs.row
}

// Sampler accumulates a day's stream of (already cleaned) quotes over a
// universe into a PriceGrid by handing each quote to its stock's
// RowSampler. Only each stock's own quotes need be in time order, so a
// globally time-sorted stream and each stock's sub-stream sampled on
// its own give the same rows.
type Sampler struct {
	uni  *taq.Universe
	rows []RowSampler
	pg   *PriceGrid
}

// NewSampler builds a sampler for one day over the given universe.
func NewSampler(grid Grid, uni *taq.Universe) *Sampler {
	n := uni.Len()
	pg := &PriceGrid{Grid: grid, Prices: make([][]float64, n)}
	rows := make([]RowSampler, n)
	for i := range rows {
		pg.Prices[i] = make([]float64, grid.SMax)
		rows[i] = NewRowSampler(grid, pg.Prices[i])
	}
	return &Sampler{uni: uni, rows: rows, pg: pg}
}

// Add incorporates one quote. Each stock's quotes must arrive in
// non-decreasing SeqTime order; out-of-session or unknown-symbol quotes
// are ignored and reported via the return value.
func (sm *Sampler) Add(q taq.Quote) bool {
	i, ok := sm.uni.Index(q.Symbol)
	if !ok {
		return false
	}
	return sm.rows[i].Add(q)
}

// Finish closes all remaining intervals and returns the completed grid.
// The sampler must not be used afterwards.
func (sm *Sampler) Finish() *PriceGrid {
	for i := range sm.rows {
		sm.rows[i].Finish()
	}
	return sm.pg
}

// Backfill replaces each stock's leading NaN prices (intervals before
// its first quote of the day) with its first defined price, so that
// return series are NaN-free. It returns an error naming the lowest
// stock with no quotes at all. Interior NaNs cannot occur with the
// forward fill.
func Backfill(pg *PriceGrid) error {
	for i, row := range pg.Prices {
		if !BackfillRow(row) {
			return fmt.Errorf("series: stock %d has no prices for the whole day", i)
		}
	}
	return nil
}

// BackfillRow is Backfill for one stock's row; it reports false, and
// leaves the row alone, if the row has no price at all.
func BackfillRow(row []float64) bool {
	first := -1
	for s, p := range row {
		if !math.IsNaN(p) {
			first = s
			break
		}
	}
	if first < 0 {
		return false
	}
	for s := 0; s < first; s++ {
		row[s] = row[first]
	}
	return true
}

// LogReturns computes the per-interval 1-period log-returns
// x_i(s) = log(P_i(s) / P_i(s-1)) for one stock's price row. Index 0 of
// the result corresponds to s = 1. NaN inputs propagate.
func LogReturns(prices []float64) []float64 {
	if len(prices) < 2 {
		return nil
	}
	out := make([]float64, len(prices)-1)
	for s := 1; s < len(prices); s++ {
		out[s-1] = math.Log(prices[s] / prices[s-1])
	}
	return out
}

// ReturnGrid converts a PriceGrid into per-stock log-return rows. Row i
// has length SMax-1 with entry s-1 = x_i(s).
func ReturnGrid(pg *PriceGrid) [][]float64 {
	out := make([][]float64, len(pg.Prices))
	for i, row := range pg.Prices {
		out[i] = LogReturns(row)
	}
	return out
}

// Window is a fixed-capacity sliding window of float64 values with
// O(1) append and an ordered snapshot view. It carries the last M
// log-returns per stock that feed each correlation calculation:
// "two vectors Xi(s) and Xj(s), containing the last M log-returns".
type Window struct {
	buf  []float64
	head int
	full bool
}

// NewWindow allocates a window of capacity m ≥ 1.
func NewWindow(m int) *Window {
	if m < 1 {
		m = 1
	}
	return &Window{buf: make([]float64, m)}
}

// Push appends x, evicting the oldest element when full.
func (w *Window) Push(x float64) {
	w.buf[w.head] = x
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
		w.full = true
	}
}

// Len returns the number of elements currently held.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.head
}

// Full reports whether the window holds M elements.
func (w *Window) Full() bool { return w.full }

// At returns the k-th element counted from the oldest (0 = oldest).
func (w *Window) At(k int) float64 {
	if w.full {
		return w.buf[(w.head+k)%len(w.buf)]
	}
	return w.buf[k]
}

// Bar is one OHLC (open/high/low/close) bar, the unit produced by
// Figure 1's "OHLC Bar Accumulator" node.
type Bar struct {
	Day      int
	Interval int // grid interval index
	Symbol   string
	Open     float64
	High     float64
	Low      float64
	Close    float64
	Count    int // quotes aggregated into the bar
}

// BarAccumulator folds a quote stream into per-interval OHLC bars for a
// single symbol. Bars for empty intervals are synthesised from the
// previous close (count 0), so consumers see a gapless series.
type BarAccumulator struct {
	grid    Grid
	symbol  string
	day     int
	cur     int
	started bool
	bar     Bar
	out     []Bar
}

// NewBarAccumulator builds an accumulator for one symbol and day.
func NewBarAccumulator(grid Grid, symbol string, day int) *BarAccumulator {
	return &BarAccumulator{grid: grid, symbol: symbol, day: day}
}

// Add folds one quote (matching the accumulator's symbol) into the
// current bar; returns false if the quote is out of session or for a
// different symbol.
func (ba *BarAccumulator) Add(q taq.Quote) bool {
	if q.Symbol != ba.symbol {
		return false
	}
	s, ok := ba.grid.Index(q.SeqTime)
	if !ok {
		return false
	}
	mid := q.Mid()
	if !ba.started {
		ba.cur = s
		ba.bar = Bar{Day: ba.day, Interval: s, Symbol: ba.symbol, Open: mid, High: mid, Low: mid, Close: mid, Count: 1}
		ba.started = true
		return true
	}
	if s != ba.cur {
		ba.flushThrough(s)
		ba.bar = Bar{Day: ba.day, Interval: s, Symbol: ba.symbol, Open: mid, High: mid, Low: mid, Close: mid, Count: 1}
		ba.cur = s
		return true
	}
	ba.bar.Close = mid
	ba.bar.Count++
	if mid > ba.bar.High {
		ba.bar.High = mid
	}
	if mid < ba.bar.Low {
		ba.bar.Low = mid
	}
	return true
}

// flushThrough emits the current bar and synthetic bars up to (not
// including) interval s.
func (ba *BarAccumulator) flushThrough(s int) {
	ba.out = append(ba.out, ba.bar)
	for t := ba.cur + 1; t < s && t < ba.grid.SMax; t++ {
		c := ba.bar.Close
		ba.out = append(ba.out, Bar{Day: ba.day, Interval: t, Symbol: ba.symbol, Open: c, High: c, Low: c, Close: c})
	}
}

// SpreadStats summarises the spread of a pair over a trailing window:
// the high Sh, low Sl and average S̄ used to place the retracement
// level L in §III step 5.
type SpreadStats struct {
	High, Low, Avg float64
}

// SpreadWindow computes SpreadStats of P_i − P_j over the RT intervals
// ending at (and including) s. It returns an error if the window would
// reach before the start of the day or contains undefined prices.
func SpreadWindow(pg *PriceGrid, i, j, s, rt int) (SpreadStats, error) {
	if rt < 1 {
		return SpreadStats{}, errors.New("series: spread window must be ≥ 1")
	}
	lo := s - rt + 1
	if lo < 0 || s >= pg.Grid.SMax {
		return SpreadStats{}, fmt.Errorf("series: spread window [%d,%d] out of range", lo, s)
	}
	var buf [256]float64 // holds every RT the sweep grids use
	sp := buf[:0]
	for t := lo; t <= s; t++ {
		sp = append(sp, pg.Spread(i, j, t))
	}
	st, nan := SummarizeSpread(sp)
	if nan >= 0 {
		return SpreadStats{}, fmt.Errorf("series: undefined spread at interval %d", lo+nan)
	}
	return st, nil
}

// SummarizeSpread returns the SpreadStats of a window of spread values,
// taken in order, and -1; or, if the window holds a NaN, the index of
// the first one. It is the one place the statistics are computed.
func SummarizeSpread(sp []float64) (SpreadStats, int) {
	st := SpreadStats{High: math.Inf(-1), Low: math.Inf(1)}
	var sum float64
	for k, v := range sp {
		if math.IsNaN(v) {
			return SpreadStats{}, k
		}
		if v > st.High {
			st.High = v
		}
		if v < st.Low {
			st.Low = v
		}
		sum += v
	}
	st.Avg = sum / float64(len(sp))
	return st, -1
}

// PeriodReturn returns the W-interval simple return of stock i ending
// at s: P_i(s)/P_i(s−W) − 1. Used to pick the over/under-performer in
// §III step 3.
func PeriodReturn(pg *PriceGrid, i, s, w int) float64 {
	if s-w < 0 {
		return math.NaN()
	}
	return pg.Prices[i][s]/pg.Prices[i][s-w] - 1
}
