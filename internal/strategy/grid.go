package strategy

import (
	"errors"
	"math"
	"slices"

	"marketminer/internal/series"
)

var errShortSeries = errors.New("strategy: correlation series shorter than W")

// DayGrid backtests many parameter levels of one pair-day in one call
// over a shared correlation series — the levels of a sweep that read
// the same (Ctype, M) series. Per pair it computes C̄ once per distinct
// W, the pair's spread row once, and the entry's spread statistics
// once per (s, RT). Each level then scans its day with one Tracker,
// held by value, through the same §III methods Tracker.Step calls:
// while flat it applies the divergence rule and calls enter only at
// entry candidates; while open it calls exitReason until the position
// closes. A level runs its whole day before the next starts, so each
// tracker's state stays hot. Each level's trades are bit-identical to
// running that level alone through RunDay, and to Step.
//
// A DayGrid is reused across pairs: after the first pair, Run
// allocates nothing unless a level trades more than it ever has. It is
// not safe for concurrent use; give each worker its own.
type DayGrid struct {
	trackers []Tracker   // one per level
	win      []int       // level → index into ws and cbar
	ws       []int       // distinct W, in first-seen level order
	cbar     [][]float64 // C̄ per distinct W over the current series
	spreads  spreadMemo
}

// NewDayGrid builds a grid over the given levels; each must be valid.
func NewDayGrid(levels []Params) (*DayGrid, error) {
	g := &DayGrid{trackers: make([]Tracker, len(levels)), win: make([]int, len(levels))}
	for li, p := range levels {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		g.trackers[li].p = p
		wi := slices.Index(g.ws, p.W)
		if wi < 0 {
			wi = len(g.ws)
			g.ws = append(g.ws, p.W)
		}
		g.win[li] = wi
		if len(levels) > 1 { // a lone level has nothing to share
			g.spreads.add(p.RT)
		}
	}
	g.cbar = make([][]float64, len(g.ws))
	return g, nil
}

// Run backtests every level over one pair-day. corrSeries[t] is
// C(firstS+t); each level starts once its W-average is defined and
// closes any open position at the day's last interval. It fails, as
// RunDay does, when the series is shorter than some level's W or the
// pair is not in canonical order. Trades(level) reads the result.
func (g *DayGrid) Run(corrSeries []float64, firstS int, pg *series.PriceGrid, pairI, pairJ, day int) error {
	for li := range g.trackers {
		if len(corrSeries) < g.trackers[li].p.W {
			return errShortSeries
		}
	}
	if err := checkPair(pairI, pairJ); err != nil {
		return err
	}
	lastS := pg.Grid.SMax - 1
	n := min(len(corrSeries), lastS-firstS+1) // intervals inside the day

	// Rolling W-average of the correlation (§III step 1), in the exact
	// summation order of a lone tracker's loop.
	for wi, w := range g.ws {
		cb := g.cbar[wi]
		if cap(cb) < len(corrSeries) {
			cb = make([]float64, len(corrSeries))
			g.cbar[wi] = cb
		}
		var sum float64
		for t := 0; t < w-1; t++ {
			sum += corrSeries[t]
		}
		for t := w - 1; t < n; t++ {
			sum += corrSeries[t]
			cb[t] = sum / float64(w)
			sum -= corrSeries[t-w+1]
		}
	}

	g.spreads.next(pg, pairI, pairJ)
	for li := range g.trackers {
		tr := &g.trackers[li]
		tr.reset(pairI, pairJ, day)
		g.scan(tr, corrSeries[:n], g.cbar[g.win[li]][:n], firstS, pg)
		// Force end-of-day close if the series ended with an open
		// position (can happen when the series stops before lastS).
		if tr.open {
			tr.closePosition(lastS, ExitEndOfDay, pg)
		}
	}
	return nil
}

// scan runs one level over c[t] = C(firstS+t) and its W-average cb,
// from the first interval where cb is defined. It alternates two
// loops: while flat, the divergence rule runs every interval and enter
// only at a candidate; while open, exitReason runs every interval until
// closePosition reverses the position. The divergence state lives in a
// local between calls that read or change it.
func (g *DayGrid) scan(tr *Tracker, c, cb []float64, firstS int, pg *series.PriceGrid) {
	sp := g.spreads.sp
	dv := tr.div
	t := tr.p.W - 1
	for t < len(c) {
		for ; t < len(c); t++ {
			var candidate bool
			if dv, _, candidate = tr.diverge(dv, c[t], cb[t]); candidate {
				tr.div = dv
				opened := tr.enter(firstS+t, cb[t], pg, &g.spreads)
				dv = tr.div
				if opened {
					t++
					break
				}
			}
		}
		for ; t < len(c); t++ {
			s := firstS + t
			var band float64
			dv, band, _ = tr.diverge(dv, c[t], cb[t])
			if reason, ok := tr.exitReason(s, c[t], cb[t], band, sp[s], pg); ok && tr.closePosition(s, reason, pg) {
				t++
				break
			}
		}
	}
	tr.div = dv
}

// Trades returns the completed trades of level li from the last Run.
// The slice is reused by the next Run; copy what must outlive it.
func (g *DayGrid) Trades(li int) []Trade { return g.trackers[li].trades }

// spreadMemo holds the current pair's spread row and shares its
// SpreadStats between the levels of a grid that try to enter at the
// same interval: for a fixed pair the statistics depend only on
// (s, RT). It holds one entry per (distinct RT, interval), valid while
// its stamp equals the current pair's.
type spreadMemo struct {
	sp      []float64       // P_i(s) − P_j(s), as PriceGrid.Spread computes it
	lastNaN []int           // [s]: the latest interval ≤ s whose spread is NaN, or -1
	rts     []int           // distinct RT
	table   [][]spreadEntry // [RT index][s]
	stamp   uint64          // the current pair's; entries from older pairs are stale
}

type spreadEntry struct {
	stamp uint64
	st    series.SpreadStats
}

// add registers a level's RT.
func (m *spreadMemo) add(rt int) {
	if !slices.Contains(m.rts, rt) {
		m.rts = append(m.rts, rt)
		m.table = append(m.table, nil)
	}
}

// next starts the pair (i, j) on pg's day: it fills the spread row and
// its NaN record, and every memo entry becomes stale.
func (m *spreadMemo) next(pg *series.PriceGrid, i, j int) {
	smax := pg.Grid.SMax
	m.stamp++
	if len(m.sp) < smax {
		m.sp = make([]float64, smax)
		m.lastNaN = make([]int, smax)
	}
	for k := range m.table {
		if len(m.table[k]) < smax {
			m.table[k] = make([]spreadEntry, smax)
		}
	}
	pi, pj := pg.Prices[i][:smax], pg.Prices[j][:smax]
	sp, lastNaN := m.sp[:smax], m.lastNaN[:smax]
	nan := -1
	for s := range sp {
		sp[s] = pi[s] - pj[s]
		if math.IsNaN(sp[s]) {
			nan = s
		}
		lastNaN[s] = nan
	}
}

// window returns the SpreadStats of the current pair's spread over the
// rt intervals ending at s, computing them at most once per (s, rt) if
// rt is shared; ok is false when the window reaches before the day or
// holds a NaN, where SpreadWindow fails.
func (m *spreadMemo) window(s, rt int) (st series.SpreadStats, ok bool) {
	lo := s - rt + 1
	if lo < 0 || m.lastNaN[s] >= lo {
		return series.SpreadStats{}, false
	}
	k := slices.Index(m.rts, rt)
	if k < 0 {
		st, _ = series.SummarizeSpread(m.sp[lo : s+1])
		return st, true
	}
	e := &m.table[k][s]
	if e.stamp != m.stamp {
		e.stamp = m.stamp
		e.st, _ = series.SummarizeSpread(m.sp[lo : s+1])
	}
	return e.st, true
}
