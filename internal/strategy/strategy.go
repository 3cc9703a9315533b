package strategy

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"marketminer/internal/portfolio"
	"marketminer/internal/series"
)

// ExitReason records why a position was reversed.
type ExitReason int

// Exit reasons, §III step 5.
const (
	ExitRetracement ExitReason = iota
	ExitHoldingPeriod
	ExitEndOfDay
	ExitStopLoss      // extension, off by default
	ExitCorrReversion // extension, off by default
)

// String names the exit reason.
func (r ExitReason) String() string {
	switch r {
	case ExitRetracement:
		return "retracement"
	case ExitHoldingPeriod:
		return "holding-period"
	case ExitEndOfDay:
		return "end-of-day"
	case ExitStopLoss:
		return "stop-loss"
	case ExitCorrReversion:
		return "corr-reversion"
	default:
		return "unknown"
	}
}

// Trade is one completed round-trip pair trade.
type Trade struct {
	Day          int
	PairI, PairJ int // canonical universe indices, I < J
	EntryS       int
	ExitS        int
	LongStock    int
	ShortStock   int
	LongSh       int
	ShortSh      int
	LongEntry    float64
	ShortEntry   float64
	LongExit     float64
	ShortExit    float64
	PnL          float64
	Return       float64 // §III step 6: PnL / entry gross exposure
	Reason       ExitReason
}

// Tracker is the per-(pair, parameter-set) strategy state machine. It
// is fed one interval at a time — by the backtester sweeping a stored
// day, or by the live Figure-1 pipeline as matrices stream out of the
// correlation engine. The caller supplies C(s) and C̄(s); the tracker
// owns divergence freshness, position state and exit logic. It holds
// its position by value, so a tracker reused across pair-days (the
// level grid's) allocates nothing per entry.
type Tracker struct {
	p      Params
	pairI  int
	pairJ  int
	day    int
	pos    portfolio.PairPosition // the open position, valid while open
	open   bool
	div    divergence
	trades []Trade
}

// divergence is a tracker's §III step-2 state. diverge takes and
// returns it by value, so a loop over many intervals keeps it in
// registers.
type divergence struct {
	armed    bool // above the divergence band since the last entry
	belowAge int  // intervals since the divergence band was crossed
}

// NewTracker builds a tracker for one pair. pairI < pairJ is required.
func NewTracker(p Params, pairI, pairJ, day int) (*Tracker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkPair(pairI, pairJ); err != nil {
		return nil, err
	}
	tr := &Tracker{p: p}
	tr.reset(pairI, pairJ, day)
	return tr, nil
}

func checkPair(pairI, pairJ int) error {
	if pairI >= pairJ {
		return fmt.Errorf("strategy: pair (%d,%d) not in canonical order", pairI, pairJ)
	}
	return nil
}

// reset starts the tracker flat on a new pair-day, keeping its
// parameters and its trade buffer's capacity.
func (tr *Tracker) reset(pairI, pairJ, day int) {
	tr.pairI, tr.pairJ, tr.day = pairI, pairJ, day
	tr.open = false
	tr.div = divergence{armed: true}
	tr.trades = tr.trades[:0]
}

// Position returns the open position, or nil when flat. The pointer
// aliases the tracker's state and is valid until its next Step.
func (tr *Tracker) Position() *portfolio.PairPosition {
	if !tr.open {
		return nil
	}
	return &tr.pos
}

// Trades returns all completed trades so far.
func (tr *Tracker) Trades() []Trade { return tr.trades }

// Step advances the tracker to interval s with the current correlation
// c = C(s) and its W-average cbar = C̄(s), against the day's price
// grid. It returns a completed trade (nil if none) and any orders
// generated this interval (entry or exit legs).
func (tr *Tracker) Step(s int, c, cbar float64, pg *series.PriceGrid) (*Trade, []portfolio.Order) {
	var band float64
	var candidate bool
	tr.div, band, candidate = tr.diverge(tr.div, c, cbar)
	if tr.open {
		reason, ok := tr.exitReason(s, c, cbar, band, pg.Spread(tr.pairI, tr.pairJ, s), pg)
		if !ok || !tr.closePosition(s, reason, pg) {
			return nil, nil
		}
		t := &tr.trades[len(tr.trades)-1]
		return t, []portfolio.Order{
			{Day: tr.day, Interval: s, Stock: t.LongStock, Side: portfolio.Sell, Shares: t.LongSh, Price: t.LongExit},
			{Day: tr.day, Interval: s, Stock: t.ShortStock, Side: portfolio.Buy, Shares: t.ShortSh, Price: t.ShortExit},
		}
	}
	if !candidate || !tr.enter(s, cbar, pg, nil) {
		return nil, nil
	}
	pos := &tr.pos
	return nil, []portfolio.Order{
		{Day: tr.day, Interval: s, Stock: pos.LongStock, Side: portfolio.Buy, Shares: pos.LongSh, Price: pos.LongPx},
		{Day: tr.day, Interval: s, Stock: pos.ShortStock, Side: portfolio.Sell, Shares: pos.ShortSh, Price: pos.ShortPx},
	}
}

// diverge applies the divergence rule (§III step 2) to the tracker's
// divergence state dv at one interval and returns the new state and the
// band C̄·(1−d). The coefficient has "diverged more than d% from C̄(s)"
// when C < band. The divergence must be fresh — it must have begun
// within the last Y intervals — and each divergence episode triggers at
// most one entry (the tracker re-arms when C returns above the band).
// candidate reports whether a flat tracker may try to enter here: a
// fresh, armed divergence while C̄ exceeds the trading threshold A
// (step 3). Step and the level grid both call it once per interval.
func (tr *Tracker) diverge(dv divergence, c, cbar float64) (_ divergence, band float64, candidate bool) {
	band = cbar * (1 - tr.p.D)
	if !(c < band) {
		return divergence{armed: true}, band, false
	}
	dv.belowAge++
	return dv, band, dv.armed && dv.belowAge <= tr.p.Y && cbar > tr.p.A
}

// enter opens a position at candidate interval s when the rest of §III
// steps 3–5 allow it, and reports whether it did. spreads shares the
// RT-window spread statistics between the levels of a grid; nil
// computes them from pg.
func (tr *Tracker) enter(s int, cbar float64, pg *series.PriceGrid, spreads *spreadMemo) bool {
	lastS := pg.Grid.SMax - 1
	if s > lastS-tr.p.ST {
		return false // too close to the close to open
	}
	if s-tr.p.W < 0 || s-tr.p.RT+1 < 0 {
		return false // lookbacks not yet available
	}
	pi, pj := pg.Price(tr.pairI, s), pg.Price(tr.pairJ, s)
	if !(pi > 0) || !(pj > 0) || math.IsNaN(pi) || math.IsNaN(pj) {
		return false
	}
	retI := series.PeriodReturn(pg, tr.pairI, s, tr.p.W)
	retJ := series.PeriodReturn(pg, tr.pairJ, s, tr.p.W)
	if math.IsNaN(retI) || math.IsNaN(retJ) || retI == retJ {
		return false
	}
	var spread series.SpreadStats
	if spreads != nil {
		var ok bool
		if spread, ok = spreads.window(s, tr.p.RT); !ok {
			return false
		}
	} else {
		var err error
		if spread, err = series.SpreadWindow(pg, tr.pairI, tr.pairJ, s, tr.p.RT); err != nil {
			return false
		}
	}

	// Step 3: long the under-performer, short the over-performer.
	longI := retI < retJ
	ni, nj := portfolio.ShareRatio(pi, pj, longI)

	pos := portfolio.PairPosition{Day: tr.day, EntryS: s}
	if longI {
		pos.LongStock, pos.ShortStock = tr.pairI, tr.pairJ
		pos.LongSh, pos.ShortSh = ni, nj
		pos.LongPx, pos.ShortPx = pi, pj
	} else {
		pos.LongStock, pos.ShortStock = tr.pairJ, tr.pairI
		pos.LongSh, pos.ShortSh = nj, ni
		pos.LongPx, pos.ShortPx = pj, pi
	}

	// Step 5: retracement level from the RT-window spread statistics.
	se := pi - pj
	pos.EntrySpread = se
	if se <= spread.Avg {
		pos.Retrace = spread.Low + tr.p.L*(spread.High-spread.Low)
		pos.RetraceUp = true // reverse when the spread recovers upward
	} else {
		pos.Retrace = spread.High - tr.p.L*(spread.High-spread.Low)
		pos.RetraceUp = false
	}
	tr.pos = pos
	tr.open = true
	tr.div.armed = false // consume this divergence episode
	return true
}

// exitReason evaluates §III step-5 reversal triggers at interval s, in
// priority order: stop-loss, correlation reversion, retracement,
// holding period, end of day. band is diverge's, and spread is the
// pair's P_i(s) − P_j(s).
func (tr *Tracker) exitReason(s int, c, cbar, band, spread float64, pg *series.PriceGrid) (ExitReason, bool) {
	pos := &tr.pos
	if tr.p.StopLoss > 0 {
		le := pg.Price(pos.LongStock, s)
		se := pg.Price(pos.ShortStock, s)
		if !math.IsNaN(le) && !math.IsNaN(se) && pos.Return(le, se) < -tr.p.StopLoss {
			return ExitStopLoss, true
		}
	}
	if tr.p.CorrReversion && c >= band && c < cbar {
		return ExitCorrReversion, true
	}
	if !math.IsNaN(spread) {
		if pos.RetraceUp && spread >= pos.Retrace {
			return ExitRetracement, true
		}
		if !pos.RetraceUp && spread <= pos.Retrace {
			return ExitRetracement, true
		}
	}
	if s-pos.EntryS >= tr.p.HP {
		return ExitHoldingPeriod, true
	}
	if s >= pg.Grid.SMax-1 {
		return ExitEndOfDay, true
	}
	return 0, false
}

// closePosition reverses the open position at interval s into a Trade
// and reports whether it could.
func (tr *Tracker) closePosition(s int, reason ExitReason, pg *series.PriceGrid) bool {
	pos := &tr.pos
	le := pg.Price(pos.LongStock, s)
	se := pg.Price(pos.ShortStock, s)
	if math.IsNaN(le) || math.IsNaN(se) || le <= 0 || se <= 0 {
		// Cannot price the exit this interval; hold until we can
		// (forward-filled grids make this transient at worst).
		return false
	}
	tr.trades = append(tr.trades, Trade{
		Day:        tr.day,
		PairI:      tr.pairI,
		PairJ:      tr.pairJ,
		EntryS:     pos.EntryS,
		ExitS:      s,
		LongStock:  pos.LongStock,
		ShortStock: pos.ShortStock,
		LongSh:     pos.LongSh,
		ShortSh:    pos.ShortSh,
		LongEntry:  pos.LongPx,
		ShortEntry: pos.ShortPx,
		LongExit:   le,
		ShortExit:  se,
		PnL:        pos.PnL(le, se),
		Return:     pos.Return(le, se),
		Reason:     reason,
	})
	tr.open = false
	return true
}

// RunDay backtests one pair for one day with one parameter set: it is
// the one-level DayGrid. corrSeries[t] is C(firstS+t) computed with
// window M; the tracker starts once the W-average is defined and
// finishes at the last interval, closing any open position (§III: "we
// should reverse all positions at the end of the trading day"). The
// returned trades belong to the caller.
func RunDay(p Params, corrSeries []float64, firstS int, pg *series.PriceGrid, pairI, pairJ, day int) ([]Trade, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g, _ := loneGrids.Get().(*DayGrid)
	if g == nil {
		g, _ = NewDayGrid([]Params{p}) // p is valid
	}
	defer loneGrids.Put(g)
	g.trackers[0].p, g.ws[0] = p, p.W
	if err := g.Run(corrSeries, firstS, pg, pairI, pairJ, day); err != nil {
		return nil, err
	}
	if trades := g.Trades(0); len(trades) > 0 {
		return slices.Clone(trades), nil
	}
	return nil, nil
}

// loneGrids holds one-level grids for RunDay, so a call allocates only
// the trades it returns.
var loneGrids sync.Pool
