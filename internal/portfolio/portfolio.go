// Package portfolio provides order, position and P&L accounting for
// the pair-trading strategy: the 1:x share-ratio rule of §III step 4,
// per-trade return accounting of step 6, and the basket book kept by
// the Figure-1 master process that "can be gathered … to perform
// additional tasks such as risk management and liquidity provisioning".
//
// Ownership contract: a Book is single-owner state — exactly one
// goroutine (the master/aggregator) mutates it, so it takes no locks;
// concurrent readers must go through that owner. All arithmetic is
// plain float64 with a fixed evaluation order, so position sizing and
// P&L are deterministic given the same order stream.
package portfolio

import (
	"errors"
	"fmt"
	"math"
)

// Side is the direction of an order leg.
type Side int

// Order sides.
const (
	Buy Side = iota
	Sell
)

// String names the side.
func (s Side) String() string {
	if s == Buy {
		return "buy"
	}
	return "sell"
}

// Order is one leg of a pair trade, the message type emitted by the
// strategy node toward the execution/master node.
type Order struct {
	Day      int
	Interval int
	Stock    int // universe index
	Side     Side
	Shares   int
	Price    float64
}

// Notional returns the order's dollar value.
func (o Order) Notional() float64 { return float64(o.Shares) * o.Price }

// ShareRatio implements §III step 4: for prices pi > pj, long i/short j
// uses ratio 1:⌊pi/pj⌋ and short i/long j uses 1:⌈pi/pj⌉, keeping the
// basket "as close to cash-neutral as possible, but just slightly on
// the long side". The returned counts are (shares of i, shares of j).
// It panics on non-positive prices — callers sample from a cleaned
// price grid, so that is a programming error.
func ShareRatio(pi, pj float64, longI bool) (ni, nj int) {
	if pi <= 0 || pj <= 0 {
		panic(fmt.Sprintf("portfolio: non-positive prices %v, %v", pi, pj))
	}
	if pi < pj {
		// Normalise: the rule is stated for pi > pj; flip the pair.
		nj, ni = ShareRatio(pj, pi, !longI)
		return ni, nj
	}
	ratio := pi / pj
	if longI {
		x := int(math.Floor(ratio))
		if x < 1 {
			x = 1
		}
		return 1, x
	}
	x := int(math.Ceil(ratio))
	if x < 1 {
		x = 1
	}
	return 1, x
}

// PairPosition is an open two-legged position.
type PairPosition struct {
	Day         int
	EntryS      int // entry interval
	LongStock   int
	ShortStock  int
	LongSh      int
	ShortSh     int
	LongPx      float64 // entry prices
	ShortPx     float64
	EntrySpread float64 // P_i - P_j at entry (canonical pair order)
	Retrace     float64 // retracement level L
	RetraceUp   bool    // reverse when spread ≥ L (true) or ≤ L (false)
}

// GrossEntry returns the entry gross exposure Pi·Ni + Pj·Nj, the
// denominator of the trade return in §III step 6.
func (p *PairPosition) GrossEntry() float64 {
	return float64(p.LongSh)*p.LongPx + float64(p.ShortSh)*p.ShortPx
}

// NetEntry returns long minus short notional at entry; the ratio rule
// keeps this small and non-negative ("slightly on the long side").
func (p *PairPosition) NetEntry() float64 {
	return float64(p.LongSh)*p.LongPx - float64(p.ShortSh)*p.ShortPx
}

// PnL values the position at exit prices.
func (p *PairPosition) PnL(longExit, shortExit float64) float64 {
	long := (longExit - p.LongPx) * float64(p.LongSh)
	short := (p.ShortPx - shortExit) * float64(p.ShortSh)
	return long + short
}

// Return computes the §III step-6 trade return
// R = π / (Pi·Ni + Pj·Nj) using entry gross exposure.
func (p *PairPosition) Return(longExit, shortExit float64) float64 {
	g := p.GrossEntry()
	if g <= 0 {
		return 0
	}
	return p.PnL(longExit, shortExit) / g
}

// Book is the master-side aggregate over all strategy instances: open
// orders netted per stock and realised P&L. It is the state
// behind "aggregating the results into a single basket, as opposed to
// many individual trade orders".
type Book struct {
	shares   map[int]int     // net shares per stock
	avgPx    map[int]float64 // volume-weighted average |price| traded
	realized float64
}

// NewBook returns an empty book.
func NewBook() *Book {
	return &Book{shares: make(map[int]int), avgPx: make(map[int]float64)}
}

// ErrBadOrder rejects orders with non-positive shares or price.
var ErrBadOrder = errors.New("portfolio: order needs positive shares and price")

// Apply nets one order into the book.
func (b *Book) Apply(o Order) error {
	if o.Shares <= 0 || o.Price <= 0 {
		return ErrBadOrder
	}
	signed := o.Shares
	if o.Side == Sell {
		signed = -signed
		b.realized += o.Notional()
	} else {
		b.realized -= o.Notional()
	}
	b.shares[o.Stock] += signed
	b.avgPx[o.Stock] = o.Price
	return nil
}

// NetShares returns the net share count held in a stock.
func (b *Book) NetShares(stock int) int { return b.shares[stock] }

// Flat reports whether every stock nets to zero shares.
func (b *Book) Flat() bool {
	for _, n := range b.shares {
		if n != 0 {
			return false
		}
	}
	return true
}

// CashPnL returns cumulative cash from fills (sales minus purchases);
// once the book is flat this equals realised trading profit.
func (b *Book) CashPnL() float64 { return b.realized }

// GrossExposure values current holdings at their last traded prices.
func (b *Book) GrossExposure() float64 {
	var g float64
	for s, n := range b.shares {
		g += math.Abs(float64(n)) * b.avgPx[s]
	}
	return g
}
