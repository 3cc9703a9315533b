package sweep

import (
	"context"
	"sort"
	"sync"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/sched"
	"marketminer/internal/screen"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// GroupRunner executes (day, pair-block) groups of a sweep plan and is
// the one batch driver: the in-memory sweep (Backtest), the local
// shard orchestrator (Run) and the distributed farm worker
// (internal/farm) all produce each unit's Entry through RunGroup, so a
// unit's bytes are identical whether it was computed in memory,
// journaled locally or computed on a remote worker — the invariant the
// merge byte-identity rests on.
//
// Day preparation (generate → clean → sample, the engine's per-day
// moment table, and the screening pass when enabled) goes through a
// bounded day cache, so consecutive groups of the same day share one
// pass regardless of which caller got there first, and a multi-day
// sweep holds at most about one day per worker. RunGroup is safe for
// concurrent use across distinct groups; each group must be executed
// by exactly one caller at a time (the journal/lease layers guarantee
// that ownership).
type GroupRunner struct {
	cfg  backtest.Config
	gen  *market.Generator
	plan *Plan

	pairs []taq.Pair

	days *dayCache

	warmMu sync.Mutex
	warm   corr.RobustStats
}

// NewGroupRunner validates and sanitises the configuration (filling
// market defaults from market.NewGenerator) and derives the unit
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
	r := &GroupRunner{
		cfg:   cfg,
		gen:   gen,
		plan:  plan,
		pairs: taq.AllPairs(cfg.Market.Universe.Len()),
	}
	r.days = newDayCache(dayCacheCap(plan.Days, cfg.ResolvedWorkers()), r.prepareDay)
	return r, nil
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
// d; the day cache calls it once per residency.
func (r *GroupRunner) prepareDay(d int) (*preparedDay, error) {
	dd, err := backtest.PrepareDay(r.cfg, r.gen, d)
	if err != nil {
		return nil, err
	}
	day, err := corr.NewDay(dd.Returns)
	if err != nil {
		return nil, err
	}
	pd := &preparedDay{dd: dd, corr: day}
	if r.cfg.Screen.Enabled() {
		keep, _, err := screen.Select(r.cfg.Screen, dd.Returns)
		if err != nil {
			return nil, err
		}
		pd.kept = make([]bool, r.plan.NumPairs)
		for _, pid := range keep {
			pd.kept[pid] = true
		}
	}
	return pd, nil
}

// runGroups executes groups — each the units of one (day, block) group,
// in ascending group id — on cfg.ResolvedWorkers() workers, emitting
// every completed unit through emit. The pool hands groups out in the
// order given, and group ids are day-major, so every group of a day has
// been handed out before any group of a later day; the day cache,
// which holds one day more than there are workers, therefore evicts a
// day only after all of its groups have been handed out.
func (r *GroupRunner) runGroups(ctx context.Context, groups [][]Unit, emit func(e Entry, trades int64) error) error {
	W := r.cfg.ResolvedWorkers()
	// Parallelism lives at the group level, but when there are fewer
	// groups than workers the surplus cores would idle; hand the
	// remainder to the matrix engine inside each group. The engine is
	// worker-count-invariant (bit-identical output for any worker
	// count), so the bytes are unchanged either way.
	engineWorkers := 1
	if len(groups) > 0 && len(groups) < W {
		engineWorkers = (W + len(groups) - 1) / len(groups)
	}
	return sched.New(W).Map(ctx, len(groups), func(ctx context.Context, gi int) error {
		units := groups[gi]
		return r.RunGroup(ctx, r.plan.GroupID(units[0].Day, units[0].Block), units, engineWorkers, emit)
	})
}

// RunGroup executes the given units of one (day, block) group —
// computing each needed correlation series once per window length and
// serving every parameter unit that reads it from one strategy.DayGrid
// pass per pair — and calls emit once per completed unit with its
// journal Entry and trade count.
// Units must belong to the group identified by gid. engineWorkers sets
// the matrix engine's intra-group parallelism; the engine is
// worker-count-invariant, so any value produces identical bytes.
func (r *GroupRunner) RunGroup(ctx context.Context, gid int, units []Unit, engineWorkers int, emit func(e Entry, trades int64) error) error {
	plan := r.plan
	day, block := gid/plan.NumBlocks(), gid%plan.NumBlocks()
	dc, err := r.days.get(day)
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
	// from a single fit per window.
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
