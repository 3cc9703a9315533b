package backtest

import (
	"context"
	"fmt"

	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/metrics"
	"marketminer/internal/sched"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

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
	// the shared series the integrated runner computes, but repeated
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

// Farm runs the sweep as independent (pair, parameter-set) jobs on an
// SGE-like scheduler: every job recomputes its own correlation series
// for every day, exactly like the paper's Approach 2 job scripts. It
// produces the same Result as Run but does asymptotically more work —
// it exists as the baseline for the Section V performance comparison.
// Use small configurations; the full paper-scale sweep is exactly the
// workload the paper shows to be prohibitive this way.
func Farm(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		return nil, err
	}
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

	// Day preparation is shared (it stands for the TAQ database);
	// everything downstream is per-job, as in Approach 2 where each
	// Matlab job re-derived its own correlations from the raw data.
	// Days are prepared lazily into a small bounded cache rather than
	// all up front: the generator is seeded per day, so whichever worker
	// arrives first produces the same data any other would have.
	workers := cfg.workers()
	cache := newDayCache(farmCacheCap(days, workers), func(d int) (*DayData, error) {
		return PrepareDay(cfg, gen, d)
	})

	pairs := taq.AllPairs(uni.Len())
	pool := sched.New(workers)
	total := numPairs * numParams
	err = pool.Map(ctx, total, func(ctx context.Context, job int) error {
		pid := job / numParams
		k := job % numParams
		p := levels[k%len(levels)].WithType(types[k/len(levels)])
		pr := pairs[pid]
		for d := 0; d < days; d++ {
			dd, err := cache.get(d)
			if err != nil {
				return err
			}
			trades, err := RunPairDaySequential(p, dd, pr.I, pr.J, d)
			if err != nil {
				return err
			}
			res.Series[pid][k].Daily[d] = TradeReturns(cfg, trades)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range res.Series {
		for k := range res.Series[p] {
			for d := range res.Series[p][k].Daily {
				res.TradeCount += int64(len(res.Series[p][k].Daily[d]))
			}
		}
	}
	return res, nil
}
