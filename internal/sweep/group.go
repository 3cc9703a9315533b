package sweep

import (
	"context"
	"sort"
	"sync"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/screen"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// GroupRunner executes (day, pair-block) groups of a sweep plan and is
// the single execution path shared by the local shard orchestrator
// (Run) and the distributed farm worker (internal/farm): both produce
// each unit's Entry through RunGroup, so a unit's bytes are identical
// whether it was computed in-process or on a remote worker — the
// invariant the farm's merge byte-identity rests on.
//
// Day preparation (generate → clean → sample, plus the screening pass
// when enabled) is cached per day, so consecutive groups of the same
// day share one pass regardless of which caller got there first.
// RunGroup is safe for concurrent use across distinct groups; each
// group must be executed by exactly one caller at a time (the
// journal/lease layers guarantee that ownership).
type GroupRunner struct {
	cfg  backtest.Config
	gen  *market.Generator
	plan *Plan

	pairs []taq.Pair

	days []dayOnce

	warmMu sync.Mutex
	warm   corr.RobustStats
}

// dayOnce caches one prepared day: the generated/cleaned/sampled data,
// the correlation engine's view of it (validated once, with the
// per-stock moment table every block of the day shares) and, when
// screening is enabled, the day's kept-pair set — identical for every
// block of the day by construction.
type dayOnce struct {
	once sync.Once
	dd   *backtest.DayData
	corr *corr.Day
	kept []bool // by pair id; nil when screening is disabled
	err  error
}

// NewGroupRunner validates and sanitises the configuration (filling
// market defaults exactly as backtest.Run does) and derives the unit
// plan. The returned runner's Plan and Config are the canonical
// versions every cooperating process must agree on.
func NewGroupRunner(cfg backtest.Config, blockSize int) (*GroupRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		return nil, err
	}
	cfg.Market = gen.Config()
	plan, err := NewPlan(cfg, blockSize)
	if err != nil {
		return nil, err
	}
	return &GroupRunner{
		cfg:   cfg,
		gen:   gen,
		plan:  plan,
		pairs: taq.AllPairs(cfg.Market.Universe.Len()),
		days:  make([]dayOnce, plan.Days),
	}, nil
}

// Plan returns the sweep decomposition.
func (r *GroupRunner) Plan() *Plan { return r.plan }

// Config returns the sanitised configuration (market defaults filled).
func (r *GroupRunner) Config() backtest.Config { return r.cfg }

// Fingerprint returns the sweep-configuration fingerprint binding this
// runner to its journals and peers.
func (r *GroupRunner) Fingerprint() string { return Fingerprint(r.cfg, r.plan.BlockSize) }

// WarmStats summarises the robust estimator's warm-start behaviour
// over every group executed so far.
func (r *GroupRunner) WarmStats() RobustSummary {
	r.warmMu.Lock()
	defer r.warmMu.Unlock()
	return summarize(&r.warm)
}

// PlanHeader builds the journal header binding r's sweep configuration
// to one shard assignment — the header every journal of the sweep
// (local shard or farm coordinator) opens with.
func PlanHeader(r *GroupRunner, sh Shard) Header {
	plan := r.plan
	h := Header{
		Schema:      JournalSchema,
		Fingerprint: r.Fingerprint(),
		ShardIndex:  sh.Index,
		ShardCount:  sh.Count,
		BlockSize:   plan.BlockSize,
		Symbols:     r.cfg.Market.Universe.Symbols(),
		Days:        plan.Days,
		Levels:      plan.Levels,
		UnitsTotal:  plan.NumUnits(),
	}
	for _, t := range plan.Types {
		h.Types = append(h.Types, t.String())
	}
	return h
}

// prepareDay generates, cleans, samples and (when enabled) screens day
// d exactly once.
func (r *GroupRunner) prepareDay(d int) (*dayOnce, error) {
	c := &r.days[d]
	c.once.Do(func() {
		c.dd, c.err = backtest.PrepareDay(r.cfg, r.gen, d)
		if c.err != nil {
			return
		}
		if c.corr, c.err = corr.NewDay(c.dd.Returns); c.err != nil || !r.cfg.Screen.Enabled() {
			return
		}
		keep, _, err := screen.Select(r.cfg.Screen, c.dd.Returns)
		if err != nil {
			c.err = err
			return
		}
		c.kept = make([]bool, r.plan.NumPairs)
		for _, pid := range keep {
			c.kept[pid] = true
		}
	})
	return c, c.err
}

// RunGroup executes the given units of one (day, block) group —
// computing each needed correlation series once per window length and
// serving every parameter unit that reads it from one strategy.DayGrid
// pass per pair, exactly like the integrated backtest — and calls emit
// once per completed unit with its journal Entry and trade count.
// Units must belong to the group identified by gid. engineWorkers sets
// the matrix engine's intra-group parallelism; the engine is
// worker-count-invariant, so any value produces identical bytes.
func (r *GroupRunner) RunGroup(ctx context.Context, gid int, units []Unit, engineWorkers int, emit func(e Entry, trades int64) error) error {
	plan := r.plan
	day, block := gid/plan.NumBlocks(), gid%plan.NumBlocks()
	dc, err := r.prepareDay(day)
	if err != nil {
		return err
	}
	lo, hi := plan.BlockRange(block)
	blockPairs := make([]int, hi-lo)
	for i := range blockPairs {
		blockPairs[i] = lo + i
	}
	// Screening intersection: the engine computes only this block's
	// surviving pairs; pruned pairs keep their journal slot with an
	// empty return set. rowOf maps a block-local index to its row in
	// the engine output (-1 = pruned).
	engPairs := blockPairs
	rowOf := func(i int) int { return i }
	if dc.kept != nil {
		engPairs = make([]int, 0, hi-lo)
		rows := make([]int, hi-lo)
		for i, pid := range blockPairs {
			if dc.kept[pid] {
				rows[i] = len(engPairs)
				engPairs = append(engPairs, pid)
			} else {
				rows[i] = -1
			}
		}
		rowOf = func(i int) int { return rows[i] }
	}

	// Group the units by window M and compute each needed correlation
	// series once — the fused robust path serves Maronna and Combined
	// from a single fit per window, exactly as the integrated runner
	// does.
	byM := map[int]map[corr.Type][]Unit{}
	for _, u := range units {
		p := plan.Param(u.Param)
		tm, ok := byM[p.M]
		if !ok {
			tm = map[corr.Type][]Unit{}
			byM[p.M] = tm
		}
		tm[p.Ctype] = append(tm[p.Ctype], u)
	}
	ms := make([]int, 0, len(byM))
	for m := range byM {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	for _, m := range ms {
		needed := byM[m]
		var types []corr.Type
		for _, t := range plan.Types {
			if _, ok := needed[t]; ok {
				types = append(types, t)
			}
		}
		var css []*corr.Series
		if len(engPairs) > 0 {
			css, err = dc.corr.Series(corr.EngineConfig{M: m, Workers: engineWorkers, Pairs: engPairs}, types)
			if err != nil {
				return err
			}
			// All robust series of one fused pass share a single stats
			// object; find it past any Pearson series and count it once.
			for _, cs := range css {
				if cs.Robust != nil {
					r.warmMu.Lock()
					r.warm.Merge(cs.Robust)
					r.warmMu.Unlock()
					break
				}
			}
		}
		for ti, t := range types {
			var cs *corr.Series // nil when the whole block was pruned
			if css != nil {
				cs = css[ti]
			}
			if err := r.runLevels(ctx, day, needed[t], cs, dc.dd, blockPairs, rowOf, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// runLevels backtests the units that read one (type, M) series: one
// DayGrid pass per pair of the block serves all of them. Each unit's
// Entry is emitted, in units order, once the block is done.
func (r *GroupRunner) runLevels(ctx context.Context, day int, units []Unit, cs *corr.Series,
	dd *backtest.DayData, blockPairs []int, rowOf func(int) int, emit func(e Entry, trades int64) error) error {
	plan := r.plan
	levels := make([]strategy.Params, len(units))
	entries := make([]Entry, len(units))
	trades := make([]int64, len(units))
	for k, u := range units {
		levels[k] = plan.Param(u.Param)
		entries[k] = Entry{U: plan.UnitID(u), Rets: make([][]float64, len(blockPairs))}
	}
	grid, err := strategy.NewDayGrid(levels)
	if err != nil {
		return err
	}
	for i, pid := range blockPairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		row := rowOf(i)
		if row < 0 {
			for k := range entries {
				entries[k].Rets[i] = backtest.TradeReturns(r.cfg, nil)
			}
			continue
		}
		pr := r.pairs[pid]
		if err := grid.Run(cs.Corr[row], cs.FirstS, dd.PG, pr.I, pr.J, day); err != nil {
			return err
		}
		for k := range entries {
			entries[k].Rets[i] = backtest.TradeReturns(r.cfg, grid.Trades(k))
			trades[k] += int64(len(entries[k].Rets[i]))
		}
	}
	for k, e := range entries {
		if err := emit(e, trades[k]); err != nil {
			return err
		}
	}
	return nil
}
