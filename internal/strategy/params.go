// Package strategy implements the paper's canonical intra-day
// statistical pair-trading strategy (§III): divergence detection on a
// sliding correlation average, cash-neutral-but-slightly-long position
// sizing, retracement/holding-period/end-of-day exits, and the Table I
// parameter grid.
//
// RunDay and DayGrid.Run are pure functions of (params, correlation
// series, price grid): they read nothing global, a grid's state is
// reset per pair, and each level emits the same trade list bit for bit
// on every call, alone or in any grid. This is the determinism the
// whole reproduction leans on — sweep resume, journal merges, and the
// distributed farm's duplicate-completion tolerance all assume that
// re-running a unit reproduces its bytes exactly.
package strategy

import (
	"fmt"

	"marketminer/internal/corr"
)

// Params is one strategy parameter vector k ∈ K (Table I). Time-based
// fields are in ∆s intervals; d is a fraction (0.0001 = 0.01%).
type Params struct {
	// DeltaS is the time window in seconds (Table I: 30 s).
	DeltaS int
	// Ctype is the correlation measure treatment.
	Ctype corr.Type
	// A is the minimum average correlation required for trading.
	A float64
	// M is the correlation calculation window.
	M int
	// W is the window of the correlation average C̄ (also used as the
	// period-return lookback that picks the over/under-performer).
	W int
	// Y is the window within which a divergence from the correlation
	// average must have occurred to trigger a trade.
	Y int
	// D is the divergence level from the correlation average required
	// to trigger a trade (fraction of C̄).
	D float64
	// L is the retracement parameter ℓ ∈ (0, 1).
	L float64
	// RT is the time window for measuring the spread level used in
	// the retracement calculation.
	RT int
	// HP is the maximum holding period for any position.
	HP int
	// ST is the minimum time before market close required to open a
	// new position.
	ST int

	// Extensions of §III step 5 that the paper describes but does not
	// evaluate ("we point out, but do not consider any further").
	// Both default off; the ablation benches turn them on.

	// StopLoss closes a position once its mark-to-market return drops
	// below −StopLoss (0 disables).
	StopLoss float64
	// CorrReversion closes a position once the correlation returns
	// inside [C̄(1−D), C̄] (off by default).
	CorrReversion bool
}

// DefaultParams returns the worked example of §III:
// {∆s=30, Ctype=Pearson, A=0.1, M=100, W=60, Y=10, d=0.01%, ℓ=2/3,
// RT=60, HP=30, ST=20}.
func DefaultParams() Params {
	return Params{
		DeltaS: 30,
		Ctype:  corr.Pearson,
		A:      0.1,
		M:      100,
		W:      60,
		Y:      10,
		D:      0.0001,
		L:      2.0 / 3,
		RT:     60,
		HP:     30,
		ST:     20,
	}
}

// Validate checks the vector is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.DeltaS <= 0:
		return fmt.Errorf("strategy: ∆s=%d must be positive", p.DeltaS)
	case p.A < 0 || p.A >= 1:
		return fmt.Errorf("strategy: A=%v outside [0,1)", p.A)
	case p.M < 2:
		return fmt.Errorf("strategy: M=%d too small", p.M)
	case p.W < 1:
		return fmt.Errorf("strategy: W=%d too small", p.W)
	case p.Y < 1:
		return fmt.Errorf("strategy: Y=%d too small", p.Y)
	case p.D <= 0:
		return fmt.Errorf("strategy: d=%v must be positive", p.D)
	case p.L <= 0 || p.L >= 1:
		return fmt.Errorf("strategy: ℓ=%v outside (0,1)", p.L)
	case p.RT < 1:
		return fmt.Errorf("strategy: RT=%d too small", p.RT)
	case p.HP < 1:
		return fmt.Errorf("strategy: HP=%d too small", p.HP)
	case p.ST < 0:
		return fmt.Errorf("strategy: ST=%d negative", p.ST)
	case p.StopLoss < 0:
		return fmt.Errorf("strategy: stop-loss %v negative", p.StopLoss)
	}
	return nil
}

// String renders the vector in the paper's set notation.
func (p Params) String() string {
	return fmt.Sprintf("{∆s=%d, Ctype=%s, A=%g, M=%d, W=%d, Y=%d, d=%g%%, ℓ=%.3f, RT=%d, HP=%d, ST=%d}",
		p.DeltaS, p.Ctype, p.A, p.M, p.W, p.Y, p.D*100, p.L, p.RT, p.HP, p.ST)
}

// WithType returns a copy of p using the given correlation measure.
func (p Params) WithType(t corr.Type) Params {
	p.Ctype = t
	return p
}

// BaseGrid returns the paper's 14 non-treatment parameter vectors K′
// (the levels of {∆s, M, W, Y, d, ℓ, RT, HP, ST} averaged over in
// Tables III–V). The paper does not list the exact 14 combinations, so
// we use a one-factor-at-a-time design around the §III base vector
// plus two interaction vectors, drawing every value from Table I's
// value columns. Ctype is left at Pearson; callers cross the grid with
// corr.Types() to obtain the full 42-set K.
func BaseGrid() []Params {
	base := DefaultParams()
	grid := make([]Params, 0, 14)
	add := func(mut func(*Params)) {
		p := base
		mut(&p)
		grid = append(grid, p)
	}
	add(func(p *Params) {})                // 1: base {M=100, W=60, Y=10, d=0.01%, ℓ=2/3, HP=30}
	add(func(p *Params) { p.M = 50 })      // 2
	add(func(p *Params) { p.M = 200 })     // 3
	add(func(p *Params) { p.W = 120 })     // 4
	add(func(p *Params) { p.Y = 20 })      // 5
	add(func(p *Params) { p.D = 0.0002 })  // 6
	add(func(p *Params) { p.D = 0.0003 })  // 7
	add(func(p *Params) { p.D = 0.0004 })  // 8
	add(func(p *Params) { p.D = 0.0005 })  // 9
	add(func(p *Params) { p.D = 0.0010 })  // 10
	add(func(p *Params) { p.L = 1.0 / 3 }) // 11
	add(func(p *Params) { p.HP = 40 })     // 12
	add(func(p *Params) {                  // 13: slow/wide interaction
		p.M = 200
		p.W = 120
		p.D = 0.0005
		p.HP = 40
	})
	add(func(p *Params) { // 14: fast/tight interaction
		p.M = 50
		p.Y = 20
		p.L = 1.0 / 3
	})
	return grid
}

// FullGrid crosses BaseGrid with the three correlation treatments,
// yielding the paper's 42 parameter sets (14 levels × 3 Ctypes).
func FullGrid() []Params {
	base := BaseGrid()
	out := make([]Params, 0, len(base)*3)
	for _, t := range corr.Types() {
		for _, p := range base {
			out = append(out, p.WithType(t))
		}
	}
	return out
}
