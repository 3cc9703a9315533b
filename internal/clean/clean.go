// Package clean implements the tick-data cleaning stage of the
// pipeline. Raw TAQ data "contains every raw quote … there can be many
// spurious ticks originating from various sources, some human typing
// errors but mainly from electronic trading systems generating test
// quotes … or far-out limit orders" (§III).
//
// The paper's approach is "a very simple but effective TCP-like filter
// to eliminate prices that are more than a few standard deviations from
// their corresponding moving average and deviation", leaving remaining
// outliers to be down-weighted by the robust correlation measure. The
// name refers to TCP's exponentially-weighted RTT estimator: the filter
// keeps EWMA estimates of the price level and its absolute deviation
// and rejects prices outside mean ± k·dev, exactly like an RTO bound.
package clean

import (
	"math"

	"marketminer/internal/taq"
)

// Reason classifies why a quote was rejected.
type Reason int

// Rejection reasons, in increasing order of statistical subtlety.
const (
	OK           Reason = iota // accepted
	BadStructure               // non-positive price, crossed market, bad sizes/time
	ZeroSize                   // both sizes zero → test quote
	WideSpread                 // spread implausibly wide relative to the mid
	Outlier                    // outside the TCP-like deviation band
	OutOfOrder                 // (Day, SeqTime) ran backwards (Config.Ordered)
)

// String names the reason for diagnostics.
func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case BadStructure:
		return "bad-structure"
	case ZeroSize:
		return "zero-size"
	case WideSpread:
		return "wide-spread"
	case Outlier:
		return "outlier"
	case OutOfOrder:
		return "out-of-order"
	default:
		return "unknown"
	}
}

// Config tunes the filter. NewFilter replaces each zero or
// out-of-range field with its default, so the zero value resolves to
// TCP's RTT estimator gains (Gain 1/8, DevGain 1/4), a 4-deviation
// band (K 4, the paper's "a few standard deviations"), MaxRelSpread
// 0.10, Warmup 2 and MaxRun 5, with Ordered off.
type Config struct {
	// Gain is the EWMA gain α for the level estimate (TCP uses 1/8).
	Gain float64
	// DevGain is the EWMA gain for the deviation estimate (TCP: 1/4).
	DevGain float64
	// K is the acceptance band half-width in deviations ("more than a
	// few standard deviations").
	K float64
	// MaxRelSpread rejects quotes whose spread exceeds this fraction
	// of the mid (far-out test quotes routinely have huge spreads).
	MaxRelSpread float64
	// Warmup is the number of accepted quotes per symbol before the
	// deviation band is enforced; the estimators need a burn-in.
	Warmup int
	// MaxRun bounds consecutive outlier rejections per symbol. A
	// genuine level shift (a breakdown event, a news jump) looks like
	// an outlier to a frozen estimator; after MaxRun consecutive
	// rejections the filter concludes the level is real, re-anchors
	// its estimator on the current quote and accepts it. Isolated bad
	// ticks never persist, so they are still rejected.
	MaxRun int
	// Ordered additionally enforces stream-wide (Day, SeqTime)
	// monotonicity via taq.OrderChecker — the same validator the feed
	// collector runs on networked input. A quote that travels back in
	// time is rejected with OutOfOrder before any statistical test; it
	// never perturbs the EWMA estimators.
	Ordered bool
}

// state is the per-symbol EWMA estimator pair.
type state struct {
	n      int
	mean   float64
	dev    float64
	outRun int // consecutive outlier rejections
}

// Filter is a streaming per-symbol quote filter. It is not safe for
// concurrent use; the pipeline runs one Filter per partition.
type Filter struct {
	cfg      Config
	bySymbol map[string]*state
	order    taq.OrderChecker // stream-wide monotonicity (Config.Ordered)
	accepted int
	rejected map[Reason]int
}

// NewFilter returns a Filter with the given configuration.
func NewFilter(cfg Config) *Filter {
	if cfg.Gain <= 0 || cfg.Gain > 1 {
		cfg.Gain = 1.0 / 8
	}
	if cfg.DevGain <= 0 || cfg.DevGain > 1 {
		cfg.DevGain = 1.0 / 4
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.MaxRelSpread <= 0 {
		cfg.MaxRelSpread = 0.10
	}
	if cfg.Warmup < 2 {
		cfg.Warmup = 2
	}
	if cfg.MaxRun < 1 {
		cfg.MaxRun = 5
	}
	return &Filter{
		cfg:      cfg,
		bySymbol: make(map[string]*state),
		rejected: make(map[Reason]int),
	}
}

// Check classifies a quote without updating any state. Exposed for
// testing and for consumers that manage their own estimator updates.
func (f *Filter) Check(q taq.Quote) Reason {
	if !q.Valid() {
		return BadStructure
	}
	if q.BidSize == 0 && q.AskSize == 0 {
		return ZeroSize
	}
	mid := q.Mid()
	if q.Spread() > f.cfg.MaxRelSpread*mid {
		return WideSpread
	}
	st := f.bySymbol[q.Symbol]
	if st == nil || st.n < f.cfg.Warmup {
		return OK
	}
	dev := st.dev
	if floor := devFloor(st.mean); dev < floor {
		dev = floor
	}
	if math.Abs(mid-st.mean) > f.cfg.K*dev {
		return Outlier
	}
	return OK
}

// devFloor keeps the band open when the deviation estimate collapses to
// ~0 on a quiet tape: a one-tick move (a basis point) must never be
// rejected.
func devFloor(mean float64) float64 { return 1e-4 * math.Abs(mean) }

// Accept classifies q and, when accepted, folds its mid into the
// symbol's EWMA estimators. A run of MaxRun consecutive outliers is
// treated as a genuine level shift: the estimator re-anchors on the
// current quote and the quote is accepted.
func (f *Filter) Accept(q taq.Quote) Reason {
	// Ordering is checked first: a time-travelling quote is rejected
	// outright, whatever its price looks like, and the MaxRun re-anchor
	// path below must never fire on one. The checker's running-max
	// semantics mean a rejected glitch does not poison later quotes.
	if f.cfg.Ordered && !f.order.Check(q) {
		f.rejected[OutOfOrder]++
		return OutOfOrder
	}
	r := f.Check(q)
	st := f.bySymbol[q.Symbol]
	if r == Outlier && st != nil {
		st.outRun++
		if st.outRun >= f.cfg.MaxRun {
			// Persistent level: re-anchor and fall through to accept.
			mid := q.Mid()
			st.mean = mid
			st.dev = mid * 0.001
			st.outRun = 0
			st.n++
			f.accepted++
			return OK
		}
	}
	if r != OK {
		f.rejected[r]++
		return r
	}
	if st == nil {
		st = &state{}
		f.bySymbol[q.Symbol] = st
	}
	st.outRun = 0
	mid := q.Mid()
	if st.n == 0 {
		st.mean = mid
		st.dev = mid * 0.001 // initial deviation guess: 10 bps
	} else {
		err := mid - st.mean
		st.mean += f.cfg.Gain * err
		st.dev += f.cfg.DevGain * (math.Abs(err) - st.dev)
	}
	st.n++
	f.accepted++
	return OK
}

// Accepted returns the count of accepted quotes.
func (f *Filter) Accepted() int { return f.accepted }

// Rejected returns the count of rejections for the given reason.
func (f *Filter) Rejected(r Reason) int { return f.rejected[r] }

// TotalRejected returns the count of all rejections.
func (f *Filter) TotalRejected() int {
	var n int
	for _, c := range f.rejected {
		n += c
	}
	return n
}

// Level returns the filter's current EWMA level estimate for a symbol
// and whether the symbol has been seen.
func (f *Filter) Level(symbol string) (mean, dev float64, ok bool) {
	st := f.bySymbol[symbol]
	if st == nil {
		return 0, 0, false
	}
	return st.mean, st.dev, true
}

// Clean filters a quote slice in one pass, returning the accepted
// quotes in order. A convenience wrapper over Accept for a whole
// stream at once; backtest.PrepareDay instead runs one Filter per
// stock over that stock's quotes.
func Clean(cfg Config, quotes []taq.Quote) ([]taq.Quote, *Filter) {
	f := NewFilter(cfg)
	out := make([]taq.Quote, 0, len(quotes))
	for _, q := range quotes {
		if f.Accept(q) == OK {
			out = append(out, q)
		}
	}
	return out, f
}
