package strategy

import (
	"errors"
	"slices"

	"marketminer/internal/series"
)

var errShortSeries = errors.New("strategy: correlation series shorter than W")

// DayGrid backtests many parameter levels of one pair-day in one call
// over a shared correlation series — the levels of a sweep that read
// the same (Ctype, M) series. Per pair it computes C̄ once per
// distinct W and the entry's spread statistics once per (s, RT), and
// steps one Tracker per level, held by value, through the same
// transition Tracker.Step uses; a level runs its whole day before the
// next starts, so each tracker's state stays hot. Each level's trades
// are bit-identical to running that level alone through RunDay.
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

	g.spreads.next(pg.Grid.SMax)
	for li := range g.trackers {
		tr := &g.trackers[li]
		tr.reset(pairI, pairJ, day)
		cb := g.cbar[g.win[li]]
		for t := tr.p.W - 1; t < n; t++ {
			tr.advance(firstS+t, corrSeries[t], cb[t], pg, &g.spreads)
		}
		// Force end-of-day close if the series ended with an open
		// position (can happen when the series stops before lastS).
		if tr.open {
			tr.closePosition(lastS, ExitEndOfDay, pg)
		}
	}
	return nil
}

// Trades returns the completed trades of level li from the last Run.
// The slice is reused by the next Run; copy what must outlive it.
func (g *DayGrid) Trades(li int) []Trade { return g.trackers[li].trades }

// spreadMemo shares SpreadWindow results, error included, between the
// levels of a grid that try to enter at the same interval: for a fixed
// pair the statistics depend only on (s, RT). It holds one entry per
// (distinct RT, interval), valid while its stamp equals the current
// pair's.
type spreadMemo struct {
	rts   []int           // distinct RT
	table [][]spreadEntry // [RT index][s]
	stamp uint64          // the current pair's; entries from older pairs are stale
}

type spreadEntry struct {
	stamp uint64
	st    series.SpreadStats
	err   error
}

// add registers a level's RT.
func (m *spreadMemo) add(rt int) {
	if !slices.Contains(m.rts, rt) {
		m.rts = append(m.rts, rt)
		m.table = append(m.table, nil)
	}
}

// next starts a new pair on a day of smax intervals: every entry
// becomes stale.
func (m *spreadMemo) next(smax int) {
	m.stamp++
	for k := range m.table {
		if len(m.table[k]) < smax {
			m.table[k] = make([]spreadEntry, smax)
		}
	}
}

// window returns SpreadWindow(pg, i, j, s, rt), computing it at most
// once per (s, rt) for the current pair. A nil memo, or an RT it does
// not hold, always computes.
func (m *spreadMemo) window(pg *series.PriceGrid, i, j, s, rt int) (series.SpreadStats, error) {
	k := -1
	if m != nil {
		k = slices.Index(m.rts, rt)
	}
	if k < 0 {
		return series.SpreadWindow(pg, i, j, s, rt)
	}
	e := &m.table[k][s]
	if e.stamp != m.stamp {
		e.stamp = m.stamp
		e.st, e.err = series.SpreadWindow(pg, i, j, s, rt)
	}
	return e.st, e.err
}
