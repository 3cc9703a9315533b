package portfolio

import "errors"

// CostModel quantifies the "implementation shortfalls that occur in
// practice such as transaction costs, moving the market (on big
// orders) and lost opportunity" that the paper defers to future work.
// The backtest applies it per executed leg:
//
//   - Commission: a fixed fee per share (brokerage),
//   - SpreadCross: the fraction of the quoted half-spread paid to
//     cross it (1 = full aggressive fill at bid/ask; the frictionless
//     baseline trades at the BAM, i.e. 0),
//   - ImpactCoeff: linear market impact in fractions of price per
//     share traded, modelling "moving the market (on big orders)".
//
// The zero CostModel is the paper's frictionless setting.
type CostModel struct {
	Commission  float64 // $ per share
	SpreadCross float64 // fraction of half-spread paid per leg
	ImpactCoeff float64 // price fraction per share of participation
}

// Zero reports whether the model charges nothing.
func (c CostModel) Zero() bool {
	return c.Commission == 0 && c.SpreadCross == 0 && c.ImpactCoeff == 0
}

// Validate rejects negative components.
func (c CostModel) Validate() error {
	if c.Commission < 0 || c.SpreadCross < 0 || c.ImpactCoeff < 0 {
		return errors.New("portfolio: cost components must be non-negative")
	}
	return nil
}

// LegCost returns the dollar cost of executing one leg of `shares` at
// `price` with quoted half-spread `halfSpread`.
func (c CostModel) LegCost(shares int, price, halfSpread float64) float64 {
	sh := float64(shares)
	commission := c.Commission * sh
	spread := c.SpreadCross * halfSpread * sh
	impact := c.ImpactCoeff * sh * sh * price
	return commission + spread + impact
}

// RoundTripCost returns the total dollar cost of a completed pair
// trade: four legs (two at entry, two at exit), each paying
// commission, spread and impact. Half-spreads are approximated as
// halfSpreadBps of each leg's price — the synthetic market quotes a
// known typical spread, and real usage can substitute measured
// spreads.
func (c CostModel) RoundTripCost(p *PairPosition, longExit, shortExit, halfSpreadBps float64) float64 {
	hs := func(px float64) float64 { return px * halfSpreadBps * 1e-4 }
	return c.LegCost(p.LongSh, p.LongPx, hs(p.LongPx)) +
		c.LegCost(p.ShortSh, p.ShortPx, hs(p.ShortPx)) +
		c.LegCost(p.LongSh, longExit, hs(longExit)) +
		c.LegCost(p.ShortSh, shortExit, hs(shortExit))
}

// NetReturn returns the §III step-6 trade return net of costs:
// (π − cost) / gross entry exposure.
func (c CostModel) NetReturn(p *PairPosition, longExit, shortExit, halfSpreadBps float64) float64 {
	g := p.GrossEntry()
	if g <= 0 {
		return 0
	}
	pnl := p.PnL(longExit, shortExit)
	if !c.Zero() {
		pnl -= c.RoundTripCost(p, longExit, shortExit, halfSpreadBps)
	}
	return pnl / g
}
