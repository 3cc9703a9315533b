// Package backtest holds the paper's Section IV experiment model: the
// sweep configuration (every pair p ∈ Φ, every parameter set k ∈ K,
// every trading day t), the collected return sets R_p^{t,k} with their
// Section V aggregates and JSON form, day preparation (generate →
// clean → sample → log-returns) and the one conversion of trades to
// returns net of costs.
//
// RunPairDaySequential is the Matlab Approach-2 unit of work: one
// (pair, day, parameter set) return vector computed in isolation,
// including its own correlation series. Its wall time is the analogue
// of the paper's "approximately 2 seconds". The sweep drivers that
// fill a Result — the integrated Approach-3 sweep and the per-pair
// Approach-2 farm — live in internal/sweep, with the day cache they
// share.
package backtest

import (
	"fmt"
	"runtime"
	"sync"

	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/metrics"
	"marketminer/internal/portfolio"
	"marketminer/internal/screen"
	"marketminer/internal/series"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// Config describes one sweep.
type Config struct {
	// Market generates the synthetic TAQ dataset (days, universe,
	// contamination, …).
	Market market.Config
	// Clean configures the tick filter.
	Clean clean.Config
	// Levels are the non-treatment parameter vectors K′ (Ctype is
	// overridden); nil means strategy.BaseGrid().
	Levels []strategy.Params
	// Types are the correlation treatments; nil means corr.Types().
	Types []corr.Type
	// Costs models implementation shortfall (commission, spread
	// crossing, market impact); the zero value is the paper's
	// frictionless setting. Half-spreads are taken from the market
	// configuration's HalfSpreadBps.
	Costs portfolio.CostModel
	// Screen configures the normalized-price SSD pre-screening stage:
	// each day, pairs whose price paths diverge are pruned before any
	// correlation work, and pruned pairs simply record no trades. The
	// zero value disables screening (bit-identical to the classic
	// full-triangle sweep); when enabled the contract is the ≥95%
	// trade-PnL recall gate, not bit-identity.
	Screen screen.Config
	// Workers bounds parallelism; ≤ 0 means GOMAXPROCS.
	Workers int
}

// ResolvedWorkers returns the effective worker count (GOMAXPROCS when
// Workers ≤ 0).
func (c Config) ResolvedWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ResolvedLevels returns the effective non-treatment parameter vectors
// K′ (strategy.BaseGrid when Levels is nil). Sweep decomposition and
// the drivers must agree on this resolution, so it is exported.
func (c Config) ResolvedLevels() []strategy.Params {
	if c.Levels != nil {
		return c.Levels
	}
	return strategy.BaseGrid()
}

// ResolvedTypes returns the effective correlation treatments
// (corr.Types when Types is nil).
func (c Config) ResolvedTypes() []corr.Type {
	if c.Types != nil {
		return c.Types
	}
	return corr.Types()
}

// Result is the collected return data of one sweep.
type Result struct {
	Universe *taq.Universe
	Levels   []strategy.Params
	Types    []corr.Type
	Days     int
	// Series[pairID][paramIdx] holds R_p^k split by day, where
	// paramIdx = typeIdx*len(Levels) + levelIdx.
	Series     [][]metrics.PairParamSeries
	TradeCount int64
}

// NewResult allocates the empty Result of a sweep over uni's pairs,
// levels × types parameter sets and days, with one (nil) return set
// slot per pair × parameter set × day for the drivers to fill.
func NewResult(uni *taq.Universe, levels []strategy.Params, types []corr.Type, days int) *Result {
	res := &Result{Universe: uni, Levels: levels, Types: types, Days: days}
	res.Series = make([][]metrics.PairParamSeries, uni.NumPairs())
	for p := range res.Series {
		res.Series[p] = make([]metrics.PairParamSeries, len(levels)*len(types))
		for k := range res.Series[p] {
			res.Series[p][k].Daily = make([][]float64, days)
		}
	}
	return res
}

// CountTrades returns the number of trade returns r holds.
func (r *Result) CountTrades() int64 {
	var n int64
	for p := range r.Series {
		for k := range r.Series[p] {
			for _, day := range r.Series[p][k].Daily {
				n += int64(len(day))
			}
		}
	}
	return n
}

// NumPairs returns |Φ|.
func (r *Result) NumPairs() int { return len(r.Series) }

// ParamIndex maps (type index, level index) to the flat param index.
func (r *Result) ParamIndex(typeIdx, levelIdx int) int {
	return typeIdx*len(r.Levels) + levelIdx
}

// Param returns the full parameter vector at a flat index.
func (r *Result) Param(idx int) strategy.Params {
	typeIdx := idx / len(r.Levels)
	return r.Levels[idx%len(r.Levels)].WithType(r.Types[typeIdx])
}

// NumParams returns |K| = levels × types.
func (r *Result) NumParams() int { return len(r.Levels) * len(r.Types) }

// DayData is the per-day cleaned market state every driver reads:
// the sampled price grid and the per-stock log-return rows.
type DayData struct {
	PG      *series.PriceGrid
	Returns [][]float64
}

// PrepareDay generates, cleans and samples one trading day into the
// price/return grids all strategies consume (generate → clean →
// sample → backfill → log-returns). It works stock by stock: while the
// generator draws the next stock's quotes, up to cfg.ResolvedWorkers()
// goroutines each take a drawn stock through its own clean.Filter and
// series.RowSampler into its grid rows, so no day-wide quote slice is
// built, sorted or copied. The grids are bit-identical to cleaning and
// sampling GenerateDay's sorted stream: the filter keeps its state per
// symbol, a row depends on its own stock's quotes alone, and each
// stock's quotes are drawn in ascending time. Exposed for the example
// programs and benches.
func PrepareDay(cfg Config, gen *market.Generator, day int) (*DayData, error) {
	grid, err := series.NewGrid(deltaSOf(cfg))
	if err != nil {
		return nil, err
	}
	n := gen.Config().Universe.Len()
	dd := &DayData{
		PG:      &series.PriceGrid{Grid: grid, Prices: make([][]float64, n)},
		Returns: make([][]float64, n),
	}
	type stockRun struct {
		i      int
		quotes []taq.Quote
	}
	// One buffer per worker plus the one the generator fills: drawn
	// quotes are recycled, never accumulated.
	workers := min(cfg.ResolvedWorkers(), n)
	runs := make(chan stockRun)
	free := make(chan []taq.Quote, workers+1)
	for k := 0; k <= workers; k++ {
		free <- make([]taq.Quote, 0, gen.StockQuoteCapacity())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range runs {
				dd.PG.Prices[r.i], dd.Returns[r.i] = prepareStock(cfg.Clean, grid, r.quotes)
				free <- r.quotes[:0]
			}
		}()
	}
	next := func() []taq.Quote { return <-free }
	_, err = gen.GenerateByStock(day, next, func(i int, quotes []taq.Quote) []taq.Quote {
		runs <- stockRun{i, quotes}
		return next()
	})
	close(runs)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// Every row with a price is backfilled already; this names the
	// lowest stock without one, whichever worker sampled it.
	if err := series.Backfill(dd.PG); err != nil {
		return nil, err
	}
	return dd, nil
}

// prepareStock cleans one stock's quotes of a day through a filter of
// its own and samples the survivors into a new price row, then
// backfills the row and derives its log-returns (nil when no quote
// survived).
func prepareStock(cc clean.Config, grid series.Grid, quotes []taq.Quote) (prices, returns []float64) {
	f := clean.NewFilter(cc)
	rs := series.NewRowSampler(grid, make([]float64, grid.SMax))
	for _, q := range quotes {
		if f.Accept(q) == clean.OK {
			rs.Add(q)
		}
	}
	prices = rs.Finish()
	if series.BackfillRow(prices) {
		returns = series.LogReturns(prices)
	}
	return prices, returns
}

// deltaSOf returns the grid resolution; all Table I vectors share
// ∆s = 30 s, and Config validation enforces that agreement.
func deltaSOf(cfg Config) int {
	levels := cfg.ResolvedLevels()
	if len(levels) == 0 {
		return 30
	}
	return levels[0].DeltaS
}

// Validate checks the configuration is runnable.
func (c Config) Validate() error {
	levels := c.ResolvedLevels()
	if len(levels) == 0 {
		return fmt.Errorf("backtest: no parameter levels")
	}
	ds := levels[0].DeltaS
	for _, p := range levels {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.DeltaS != ds {
			return fmt.Errorf("backtest: mixed ∆s in levels (%d vs %d)", p.DeltaS, ds)
		}
	}
	if len(c.ResolvedTypes()) == 0 {
		return fmt.Errorf("backtest: no correlation types")
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if err := c.Screen.Validate(); err != nil {
		return err
	}
	return nil
}

// TradeReturns converts completed trades to per-trade returns, net of
// the configured cost model. It is the single conversion point every
// driver uses, so every execution path prices trades identically.
func TradeReturns(cfg Config, trades []strategy.Trade) []float64 {
	rets := make([]float64, len(trades))
	halfBps := cfg.Market.HalfSpreadBps
	for i, tr := range trades {
		if cfg.Costs.Zero() {
			rets[i] = tr.Return
			continue
		}
		pos := &portfolio.PairPosition{
			LongSh: tr.LongSh, ShortSh: tr.ShortSh,
			LongPx: tr.LongEntry, ShortPx: tr.ShortEntry,
		}
		rets[i] = cfg.Costs.NetReturn(pos, tr.LongExit, tr.ShortExit, halfBps)
	}
	return rets
}

// RunPairDaySequential reproduces the Matlab Approach-2 unit of work:
// compute the correlation time series for one pair from scratch (no
// sharing with other pairs or parameter sets) and backtest one
// parameter set over one day. Its wall-clock time is the reproduction's
// analogue of the paper's "approximately 2 seconds … on a dual core
// Intel Pentium 4".
func RunPairDaySequential(p strategy.Params, dd *DayData, pairI, pairJ, day int) ([]strategy.Trade, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	x := dd.Returns[pairI]
	y := dd.Returns[pairJ]
	if len(x) < p.M {
		return nil, fmt.Errorf("backtest: %d returns < M=%d", len(x), p.M)
	}
	// Single-pair, single-worker engine run: numerically identical to
	// the shared series the integrated sweep computes, but repeated
	// per (pair, parameter set, day) — Approach 2's wasted work.
	cs, err := corr.ComputeSeries(corr.EngineConfig{
		Type:    p.Ctype,
		M:       p.M,
		Workers: 1,
		Pairs:   []int{0},
	}, [][]float64{x, y})
	if err != nil {
		return nil, err
	}
	return strategy.RunDay(p, cs.Corr[0], cs.FirstS, dd.PG, pairI, pairJ, day)
}
