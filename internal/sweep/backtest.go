package sweep

import (
	"context"

	"marketminer/internal/backtest"
	"marketminer/internal/sched"
	"marketminer/internal/strategy"
)

// Backtest runs the whole sweep in memory — the paper's integrated
// Approach 3: each day's correlation series is computed once per
// (Ctype, M) and shared by every pair and parameter set. It executes
// every group of a default-block plan through GroupRunner and places
// each unit's rows exactly as MergeFiles places a journaled unit's, so
// its Result equals the merge of any sharded or journaled run of cfg
// bit for bit.
func Backtest(ctx context.Context, cfg backtest.Config) (*backtest.Result, error) {
	r, err := NewGroupRunner(cfg, 0)
	if err != nil {
		return nil, err
	}
	plan := r.plan
	res := backtest.NewResult(r.cfg.Market.Universe, plan.Levels, plan.Types, plan.Days)
	groups := make([][]Unit, plan.NumGroups())
	for gid := range groups {
		groups[gid] = plan.groupUnits(gid)
	}
	// Concurrent groups write disjoint (pair, param, day) slots.
	err = r.runGroups(ctx, groups, func(e Entry, _ int64) error { return plan.place(res, e) })
	if err != nil {
		return nil, err
	}
	res.TradeCount = res.CountTrades()
	return res, nil
}

// Farm runs the sweep as independent (pair, parameter-set) jobs on an
// SGE-like scheduler: every job recomputes its own correlation series
// for every day through backtest.RunPairDaySequential, exactly like the
// paper's Approach 2 job scripts. Day preparation, which stands for
// the TAQ database, comes from the same bounded day cache Backtest
// uses, screening included: a pair the day's screen pruned records an
// empty return set, as in Backtest. Farm produces the same Result as
// Backtest but does asymptotically more work — it exists as the
// baseline for the Section V performance comparison. Use small
// configurations; the full paper-scale sweep is exactly the workload
// the paper shows to be prohibitive this way.
func Farm(ctx context.Context, cfg backtest.Config) (*backtest.Result, error) {
	r, err := NewGroupRunner(cfg, 0)
	if err != nil {
		return nil, err
	}
	plan := r.plan
	res := backtest.NewResult(r.cfg.Market.Universe, plan.Levels, plan.Types, plan.Days)
	numParams := plan.NumParams()
	err = sched.New(r.cfg.ResolvedWorkers()).Map(ctx, plan.NumPairs*numParams, func(ctx context.Context, job int) error {
		pid, k := job/numParams, job%numParams
		p, pr := plan.Param(k), r.pairs[pid]
		for d := 0; d < plan.Days; d++ {
			day, err := r.days.get(d)
			if err != nil {
				return err
			}
			var trades []strategy.Trade
			if day.kept == nil || day.kept[pid] {
				if trades, err = backtest.RunPairDaySequential(p, day.dd, pr.I, pr.J, d); err != nil {
					return err
				}
			}
			res.Series[pid][k].Daily[d] = backtest.TradeReturns(r.cfg, trades)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.TradeCount = res.CountTrades()
	return res, nil
}
