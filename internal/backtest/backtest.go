// Package backtest orchestrates the paper's Section IV experiment: for
// every pair p ∈ Φ, every parameter set k ∈ K and every trading day t,
// run the canonical strategy and collect the return sets R_p^{t,k}.
//
// Three runners reproduce the paper's three approaches:
//
//   - RunPairDaySequential — the Matlab Approach-2 unit of work: one
//     (pair, day, parameter set) return vector computed in isolation,
//     including its own correlation series. Its wall time is the
//     analogue of the paper's "approximately 2 seconds".
//   - Farm — Approach 2 at scale: independent per-(pair, set) jobs on
//     an SGE-like scheduler (internal/sched), sharing nothing.
//   - Run — Approach 3, the integrated MarketMiner path: each day's
//     correlation series is computed once per (Ctype, M) by the
//     parallel engine and shared by every pair and parameter set.
package backtest

import (
	"context"
	"fmt"
	"runtime"

	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/metrics"
	"marketminer/internal/portfolio"
	"marketminer/internal/sched"
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
	// Progress, when non-nil, receives a line per completed day.
	Progress func(day, totalDays, trades int)
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
// the runners must agree on this resolution, so it is exported.
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

func (c Config) workers() int { return c.ResolvedWorkers() }

func (c Config) levels() []strategy.Params { return c.ResolvedLevels() }

func (c Config) types() []corr.Type { return c.ResolvedTypes() }

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

// DayData is the per-day cleaned market state shared by all runners:
// the sampled price grid and the per-stock log-return rows.
type DayData struct {
	PG      *series.PriceGrid
	Returns [][]float64
}

// PrepareDay generates, cleans and samples one trading day into the
// price/return grids all strategies consume (generate → clean →
// sample → backfill → log-returns). Exposed for the example programs
// and benches.
func PrepareDay(cfg Config, gen *market.Generator, day int) (*DayData, error) {
	md, err := gen.GenerateDay(day)
	if err != nil {
		return nil, err
	}
	return prepareQuotes(cfg, gen.Config().Universe, md.Quotes)
}

func prepareQuotes(cfg Config, uni *taq.Universe, quotes []taq.Quote) (*DayData, error) {
	cleaned, _ := clean.Clean(cfg.Clean, quotes)
	grid, err := series.NewGrid(deltaSOf(cfg))
	if err != nil {
		return nil, err
	}
	sm := series.NewSampler(grid, uni)
	for _, q := range cleaned {
		sm.Add(q)
	}
	pg := sm.Finish()
	if err := series.Backfill(pg); err != nil {
		return nil, err
	}
	return &DayData{PG: pg, Returns: series.ReturnGrid(pg)}, nil
}

// deltaSOf returns the grid resolution; all Table I vectors share
// ∆s = 30 s, and Config validation enforces that agreement.
func deltaSOf(cfg Config) int {
	levels := cfg.levels()
	if len(levels) == 0 {
		return 30
	}
	return levels[0].DeltaS
}

// Validate checks the configuration is runnable.
func (c Config) Validate() error {
	levels := c.levels()
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
	if len(c.types()) == 0 {
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
// the configured cost model. It is the single conversion point shared
// by all runners (and the sweep orchestrator), so every execution path
// prices trades identically.
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

// Run executes the integrated (Approach 3) sweep: for each day the
// correlation series is computed once per (Ctype, M) across all pairs
// by the parallel engine, then every (pair, parameter set) strategy is
// replayed against the shared series.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		return nil, err
	}
	// Adopt the generator's sanitised configuration (defaults filled).
	cfg.Market = gen.Config()
	uni := gen.Config().Universe
	levels := cfg.levels()
	types := cfg.types()
	days := gen.Config().Days

	res := &Result{Universe: uni, Levels: levels, Types: types, Days: days}
	numPairs := uni.NumPairs()
	numParams := len(levels) * len(types)
	res.Series = make([][]metrics.PairParamSeries, numPairs)
	for p := range res.Series {
		res.Series[p] = make([]metrics.PairParamSeries, numParams)
		for k := range res.Series[p] {
			res.Series[p][k].Daily = make([][]float64, days)
		}
	}

	pool := sched.New(cfg.workers())
	pairs := taq.AllPairs(uni.Len())
	allIDs := make([]int, numPairs)
	for i := range allIDs {
		allIDs[i] = i
	}

	// Group levels by window M so each (Ctype, M) series is computed
	// exactly once per day — the paper's "overcoming the main
	// bottleneck, the computation of all pair-wise correlations".
	byM := map[int][]int{}
	for li, p := range levels {
		byM[p.M] = append(byM[p.M], li)
	}

	for d := 0; d < days; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dd, err := PrepareDay(cfg, gen, d)
		if err != nil {
			return nil, err
		}
		// Pre-screening: prune the pair triangle on the normalized
		// price paths before any correlation work. Pruned pairs record
		// empty (non-nil) return sets for every parameter set, so the
		// result shape is unchanged.
		runIDs := allIDs
		if cfg.Screen.Enabled() {
			keep, _, err := screen.Select(cfg.Screen, dd.Returns)
			if err != nil {
				return nil, err
			}
			runIDs = keep
			kept := make([]bool, numPairs)
			for _, pid := range keep {
				kept[pid] = true
			}
			for pid := 0; pid < numPairs; pid++ {
				if kept[pid] {
					continue
				}
				for k := range res.Series[pid] {
					res.Series[pid][k].Daily[d] = TradeReturns(cfg, nil)
				}
			}
		}
		var dayTrades int64
		for m, levelIdxs := range byM {
			// One engine pass per (M): the robust treatments share a
			// single warm-started Maronna fit per (pair, window), so
			// Maronna + Combined cost one M-estimation, not two.
			ec := corr.EngineConfig{M: m, Workers: cfg.workers()}
			if cfg.Screen.Enabled() {
				ec.Pairs = runIDs
			}
			css, err := corr.ComputeSeriesMulti(ec, types, dd.Returns)
			if err != nil {
				return nil, err
			}
			for ti, ct := range types {
				cs := css[ti]
				ti, levelIdxs := ti, levelIdxs
				err = pool.Map(ctx, len(runIDs), func(ctx context.Context, i int) error {
					pid := runIDs[i]
					pr := pairs[pid]
					for _, li := range levelIdxs {
						p := levels[li].WithType(ct)
						trades, err := strategy.RunDay(p, cs.Corr[i], cs.FirstS, dd.PG, pr.I, pr.J, d)
						if err != nil {
							return err
						}
						res.Series[pid][ti*len(levels)+li].Daily[d] = TradeReturns(cfg, trades)
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
		for p := range res.Series {
			for k := range res.Series[p] {
				dayTrades += int64(len(res.Series[p][k].Daily[d]))
			}
		}
		res.TradeCount += dayTrades
		if cfg.Progress != nil {
			cfg.Progress(d, days, int(dayTrades))
		}
	}
	return res, nil
}
