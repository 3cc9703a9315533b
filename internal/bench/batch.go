package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/sched"
	"marketminer/internal/screen"
	"marketminer/internal/series"
	"marketminer/internal/stats"
	"marketminer/internal/strategy"
	"marketminer/internal/sweep"
	"marketminer/internal/taq"
)

// oraclePairs is how many pairs the spot check recomputes through the
// per-pair reference engine.
const oraclePairs = 32

// warmupStocks is the universe of the set-up's warm-up sweep: enough
// pairs to touch every code path of a job, few enough to stay a set-up.
const warmupStocks = 4

// marketConfig is the one-day market every workload draws its inputs
// from: market.DefaultConfig over the first `stocks` synthetic symbols,
// with liquidity tiering off. With the default tiering (per-stock rates
// log-uniform within 1.5x) a seed moves a day's quote count by 5% and
// three seeds in ten overflow the generator's pre-sized quote buffer
// (1.05 x the nominal count), which lifts sweep_robust's peak RSS from
// 115 to 193 MB; a run's inputs must depend on the seed for their
// values, not for their size.
func marketConfig(stocks int, seed int64) (market.Config, error) {
	uni, err := taq.NewUniverse(taq.SyntheticSymbols(stocks))
	if err != nil {
		return market.Config{}, fmt.Errorf("bench: universe: %w", err)
	}
	mc := market.DefaultConfig()
	mc.Universe = uni
	mc.Seed = seed
	mc.Days = 1
	mc.LiquiditySpread = 1
	return mc, nil
}

// batchConfig builds a workload's one-day sweep configuration.
func batchConfig(w Workload, stocks int, seed int64) (backtest.Config, error) {
	mc, err := marketConfig(stocks, seed)
	if err != nil {
		return backtest.Config{}, err
	}
	cfg := backtest.Config{Market: mc, Types: w.Types}
	if w.ScreenTopFrac > 0 {
		cfg.Screen = screen.Config{TopFrac: w.ScreenTopFrac}
	}
	return cfg, nil
}

// job is one sweep of the workload's configuration: sweep.Run into a
// fresh journal, then sweep.MergeFiles.
type job struct {
	res   *backtest.Result
	stats *sweep.RunStats
	wall  time.Duration
	cpu   float64
}

// runJob executes one job with the journal at path.
func runJob(ctx context.Context, cfg backtest.Config, path string) (*job, error) {
	c0, t0 := cpuSeconds(), time.Now()
	stats, err := sweep.Run(ctx, sweep.RunConfig{
		Config:        cfg,
		Shard:         sweep.Shard{Index: 0, Count: 1},
		JournalPath:   path,
		ProgressEvery: 2 * time.Second, // the CLI's manifest cadence
	})
	if err != nil {
		return nil, fmt.Errorf("bench: sweep.Run: %w", err)
	}
	res, _, err := sweep.MergeFiles([]string{path})
	if err != nil {
		return nil, fmt.Errorf("bench: sweep.MergeFiles: %w", err)
	}
	return &job{res: res, stats: stats, wall: time.Since(t0), cpu: cpuSeconds() - c0}, nil
}

// removeJournal deletes a job's journal and manifest.
func removeJournal(path string) {
	os.Remove(path)
	os.Remove(path + ".manifest")
}

// setupBatch is one batch set-up: the configuration and a small
// warm-up sweep through the same Run + merge
// path so lazy initialisation and the journal directory's first write
// are paid before the timed region.
func setupBatch(ctx context.Context, w Workload, stocks int, seed int64, dir string) (backtest.Config, error) {
	cfg, err := batchConfig(w, stocks, seed)
	if err != nil {
		return cfg, err
	}
	warm, err := batchConfig(w, min(stocks, warmupStocks), seed)
	if err != nil {
		return cfg, err
	}
	path := filepath.Join(dir, "warmup.journal")
	removeJournal(path)
	if _, err := runJob(ctx, warm, path); err != nil {
		return cfg, err
	}
	removeJournal(path)
	return cfg, nil
}

// dayPrep is one decomposed day preparation (what backtest.PrepareDay
// plus the screening pass do), with the counts the harness reports.
type dayPrep struct {
	dd        *backtest.DayData
	kept      []bool // by pair id; nil when screening is off
	rawQuotes int
	rejected  int
	screen    screen.Stats
}

// prepareDay calls generate → clean → sample → screen directly, one
// span per layer when tr is non-nil. It must stay in step with
// backtest.PrepareDay and sweep.GroupRunner; the traced run's hash
// equality with sweep.Run is the check that it has.
func prepareDay(cfg backtest.Config, gen *market.Generator, d int, tr *Trace, parent int) (*dayPrep, error) {
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		_, end := tr.Begin(d, parent, name)
		return end
	}
	end := span("market.generate_day")
	md, err := gen.GenerateDay(d)
	end()
	if err != nil {
		return nil, fmt.Errorf("bench: generate day %d: %w", d, err)
	}
	p := &dayPrep{rawQuotes: len(md.Quotes)}

	end = span("clean.batch")
	cleaned, filter := clean.Clean(cfg.Clean, md.Quotes)
	end()
	p.rejected = filter.TotalRejected()

	end = span("series.sample")
	grid, err := series.NewGrid(cfg.ResolvedLevels()[0].DeltaS)
	if err != nil {
		end()
		return nil, err
	}
	sm := series.NewSampler(grid, gen.Config().Universe)
	for _, q := range cleaned {
		sm.Add(q)
	}
	pg := sm.Finish()
	if err := series.Backfill(pg); err != nil {
		end()
		return nil, fmt.Errorf("bench: backfill day %d: %w", d, err)
	}
	p.dd = &backtest.DayData{PG: pg, Returns: series.ReturnGrid(pg)}
	end()

	n := gen.Config().Universe.NumPairs()
	p.screen = screen.Stats{PairsTotal: n, PairsKept: n}
	if cfg.Screen.Enabled() {
		end = span("screen.select")
		keep, st, err := screen.Select(cfg.Screen, p.dd.Returns)
		end()
		if err != nil {
			return nil, fmt.Errorf("bench: screen day %d: %w", d, err)
		}
		p.screen = st
		p.kept = make([]bool, n)
		for _, pid := range keep {
			p.kept[pid] = true
		}
	}
	return p, nil
}

// sameRows reports bit-for-bit equality of two return rows (nil and
// empty are equal: the journal's JSON round trip merges them).
func sameRows(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// oracleCheck recomputes oraclePairs evenly spaced pairs of day 0
// through corr.ComputeSeriesMultiReference + strategy.RunDay and
// compares every (pair, parameter set) row with the merged result bit
// for bit. It returns rows checked and rows that differ.
func oracleCheck(cfg backtest.Config, prep *dayPrep, res *backtest.Result) (checked, bad int, err error) {
	uni := cfg.Market.Universe
	nPairs := uni.NumPairs()
	all := taq.AllPairs(uni.Len())
	var ids []int
	for i := 0; i < oraclePairs && i < nPairs; i++ {
		id := i * nPairs / min(oraclePairs, nPairs)
		ids = append(ids, id)
	}
	levels, types := cfg.ResolvedLevels(), cfg.ResolvedTypes()
	var live []int // ids that survived screening, ascending
	for _, id := range ids {
		if prep.kept == nil || prep.kept[id] {
			live = append(live, id)
		}
	}
	byM := map[int][]*corr.Series{} // reference series by window M
	for ti, t := range types {
		for li, lv := range levels {
			k := ti*len(levels) + li
			p := lv.WithType(t)
			if _, ok := byM[p.M]; !ok && len(live) > 0 {
				css, err := corr.ComputeSeriesMultiReference(corr.EngineConfig{M: p.M, Workers: 1, Pairs: live}, types, prep.dd.Returns)
				if err != nil {
					return checked, bad, fmt.Errorf("bench: oracle corr: %w", err)
				}
				byM[p.M] = css
			}
			row := 0
			for _, id := range ids {
				got := res.Series[id][k].Daily[0]
				var want []float64
				if prep.kept == nil || prep.kept[id] {
					cs := byM[p.M][ti]
					trades, err := strategy.RunDay(p, cs.Corr[row], cs.FirstS, prep.dd.PG, all[id].I, all[id].J, 0)
					if err != nil {
						return checked, bad, fmt.Errorf("bench: oracle strategy: %w", err)
					}
					want = backtest.TradeReturns(cfg, trades)
					row++
				}
				checked++
				if !sameRows(got, want) {
					bad++
				}
			}
		}
	}
	return checked, bad, nil
}

// runBatch is the untraced batch run: set up SetupRepeats times, run
// jobs for the run length, check every job's output.
func runBatch(ctx context.Context, w Workload, o Options) (*Report, error) {
	stocks := o.stocks(w)
	var cfg backtest.Config
	setups := make([]float64, 0, SetupRepeats)
	for i := 0; i < SetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if cfg, err = setupBatch(ctx, w, stocks, o.Seed, o.work); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runner, err := sweep.NewGroupRunner(cfg, 0)
	if err != nil {
		return nil, err
	}
	cfg = runner.Config()
	plan := runner.Plan()
	ppd := float64(plan.NumPairs * plan.NumParams() * plan.Days)

	// Jobs repeat until the next one is not expected to end inside the
	// run length; at least one always runs.
	var jobs []*job
	var hashes []string
	var rss []float64
	budget := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	for {
		path := filepath.Join(o.work, fmt.Sprintf("job%d.journal", len(jobs)))
		removeJournal(path)
		freshPeakRSS() // set-ups and earlier jobs are not this job's footprint
		j, err := runJob(ctx, cfg, path)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		removeJournal(path)
		hashes = append(hashes, HashResult(j.res))
		if len(jobs) > 0 {
			j.res = nil // keep one result for the oracle, free the rest
		}
		jobs = append(jobs, j)
		if time.Since(start)+j.wall > budget {
			break
		}
	}

	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		return nil, err
	}
	prep, err := prepareDay(cfg, gen, 0, nil, 0)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	units := plan.NumUnits()
	rep.Entry = GoldenEntry{Stocks: stocks, ResultHash: hashes[0], Trades: jobs[0].res.TradeCount}
	mismatch := false
	if g, ok := o.golden(w, stocks); ok {
		rep.note("golden", "checked")
		mismatch = rep.Entry != g
	}
	for i, j := range jobs {
		rep.Attempted += units
		rep.Failed += units - j.stats.UnitsExecuted // missing from the merge
		mismatch = mismatch || hashes[i] != hashes[0]
	}
	checked, bad, err := oracleCheck(cfg, prep, jobs[0].res)
	if err != nil {
		return nil, err
	}
	rep.Attempted += checked
	rep.Failed += bad
	if mismatch {
		rep.Failed = rep.Attempted // any hash mismatch fails the run outright
	}

	var tput, qps, lat []float64
	var cpu float64
	for _, j := range jobs {
		s := j.wall.Seconds()
		tput = append(tput, ppd/s)
		qps = append(qps, float64(prep.rawQuotes)/s)
		lat = append(lat, s*1e3)
		cpu += j.cpu
	}
	rep.set("setup_s", stats.Median(setups))
	rep.set("pair_param_days_per_s", stats.Median(tput))
	rep.set("quotes_per_s", stats.Median(qps))
	rep.set("result_latency_p50_ms", stats.Median(lat))
	rep.set("cpu_us_per_pair_param_day", cpu/(ppd*float64(len(jobs)))*1e6)
	rep.set("peak_rss_mb", slices.Min(rss))
	rep.note("result_hash", hashes[0])
	rep.note("jobs", fmt.Sprint(len(jobs)))
	rep.note("units_per_job", fmt.Sprint(units))
	rep.note("trades", fmt.Sprint(jobs[0].res.TradeCount))
	rep.note("quotes_per_day", fmt.Sprint(prep.rawQuotes))
	return rep, nil
}

// traceBatch is the traced batch run: one untraced reference job, then
// the harness's own loop over the same plan calling the layers
// directly with a span around each call. The decomposed pass must
// reproduce the reference job's merged hash — that is what makes the
// decomposition faithful.
func traceBatch(ctx context.Context, w Workload, o Options) (*Report, error) {
	stocks := o.stocks(w)
	cfg, err := setupBatch(ctx, w, stocks, o.Seed, o.work)
	if err != nil {
		return nil, err
	}
	refPath := filepath.Join(o.work, "ref.journal")
	removeJournal(refPath)
	ref, err := runJob(ctx, cfg, refPath)
	if err != nil {
		return nil, err
	}
	defer removeJournal(refPath)
	refHash := HashResult(ref.res)
	ref.res = nil

	runner, err := sweep.NewGroupRunner(cfg, 0)
	if err != nil {
		return nil, err
	}
	cfg = runner.Config()
	plan := runner.Plan()
	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		return nil, err
	}
	allPairs := taq.AllPairs(cfg.Market.Universe.Len())
	W := cfg.ResolvedWorkers()

	counters := counterSnapshot()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr := NewTrace()
	path := filepath.Join(o.work, "traced.journal")
	removeJournal(path)
	defer removeJournal(path)

	t0 := time.Now()
	root, endRoot := tr.Begin(0, 0, "sweep.job")
	journal, _, _, err := sweep.OpenJournal(path, sweep.PlanHeader(runner, sweep.Shard{Index: 0, Count: 1}))
	if err != nil {
		return nil, err
	}
	defer journal.Close()

	preps := make([]*dayPrep, plan.Days)
	var prepMu sync.Mutex
	var runDayCalls, pearsonWindows atomic.Int64
	engineWorkers := 1
	if g := plan.NumGroups(); g > 0 && g < W {
		engineWorkers = (W + g - 1) / g
	}
	err = sched.New(W).Map(ctx, plan.NumGroups(), func(ctx context.Context, gid int) error {
		day, block := gid/plan.NumBlocks(), gid%plan.NumBlocks()
		gspan, endGroup := tr.Begin(gid, root, "sweep.group")
		defer endGroup()

		prepMu.Lock() // one worker prepares, the others wait, as the runner's sync.Once does
		if preps[day] == nil {
			p, err := prepareDay(cfg, gen, day, tr, gspan)
			if err != nil {
				prepMu.Unlock()
				return err
			}
			preps[day] = p
		}
		prep := preps[day]
		prepMu.Unlock()

		lo, hi := plan.BlockRange(block)
		var engPairs, rows []int // surviving pair ids; engine row per block-local index (-1 = pruned)
		for pid := lo; pid < hi; pid++ {
			if prep.kept != nil && !prep.kept[pid] {
				rows = append(rows, -1)
				continue
			}
			rows = append(rows, len(engPairs))
			engPairs = append(engPairs, pid)
		}
		// One engine pass per window M serves every treatment and level
		// that uses it, as in GroupRunner.RunGroup.
		for _, m := range distinctWindows(plan.Levels) {
			var css []*corr.Series
			if len(engPairs) > 0 {
				_, end := tr.Begin(gid, gspan, "corr.series")
				css, err = corr.ComputeSeriesMulti(corr.EngineConfig{M: m, Workers: engineWorkers, Pairs: engPairs}, plan.Types, prep.dd.Returns)
				end()
				if err != nil {
					return err
				}
				if len(plan.Types) == 1 && plan.Types[0] == corr.Pearson {
					pearsonWindows.Add(int64(len(engPairs) * css[0].Len()))
				}
			}
			for ti, t := range plan.Types {
				for li, lv := range plan.Levels {
					if lv.M != m {
						continue
					}
					p := lv.WithType(t)
					u := sweep.Unit{Day: day, Block: block, Param: ti*len(plan.Levels) + li}
					trades := make([][]strategy.Trade, hi-lo)
					_, end := tr.Begin(gid, gspan, "strategy.run_day")
					for i, row := range rows {
						if row < 0 {
							continue
						}
						pr := allPairs[lo+i]
						trades[i], err = strategy.RunDay(p, css[ti].Corr[row], css[ti].FirstS, prep.dd.PG, pr.I, pr.J, day)
						if err != nil {
							end()
							return err
						}
					}
					end()
					runDayCalls.Add(int64(len(engPairs)))
					e := sweep.Entry{U: plan.UnitID(u), Rets: make([][]float64, hi-lo)}
					_, end = tr.Begin(gid, gspan, "backtest.trade_returns")
					for i := range rows {
						e.Rets[i] = backtest.TradeReturns(cfg, trades[i])
					}
					end()
					_, end = tr.Begin(gid, gspan, "sweep.journal_append")
					err = journal.Append(e)
					end()
					if err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: decomposed job: %w", err)
	}
	if err := journal.Close(); err != nil {
		return nil, err
	}
	_, end := tr.Begin(0, root, "sweep.merge")
	res, mrep, err := sweep.MergeFiles([]string{path})
	end()
	if err != nil {
		return nil, fmt.Errorf("bench: merge decomposed job: %w", err)
	}
	endRoot()
	tracedWall := time.Since(t0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	rep := newReport()
	units := plan.NumUnits()
	rep.Attempted = units
	if got := HashResult(res); got != refHash {
		rep.Failed = units
		rep.note("hash_mismatch", fmt.Sprintf("decomposed %s, sweep.Run %s", got, refHash))
	} else if mrep.Units != units {
		rep.Failed = units - mrep.Units
	}

	spans := tr.Spans()
	self := SelfTimes(spans)
	sec := func(name string) float64 { return float64(self[name]) / 1e9 }
	serial := sec("market.generate_day") + sec("clean.batch") + sec("series.sample") + sec("screen.select") + sec("sweep.merge")
	parallel := sec("corr.series") + sec("strategy.run_day") + sec("backtest.trade_returns") + sec("sweep.journal_append")
	busy := serial + parallel
	prep := preps[0]
	days := float64(plan.Days)

	rep.set("corr.series_s", sec("corr.series"))
	rep.set("corr.series_share", sec("corr.series")/busy)
	if ref.stats.Warm.Windows > 0 {
		rep.set("corr.ns_per_window_robust", sec("corr.series")*1e9/float64(ref.stats.Warm.Windows))
		rep.set("corr.windows", float64(ref.stats.Warm.Windows))
		rep.set("corr.warm_hit_frac", ref.stats.Warm.WarmHitFraction)
		rep.set("corr.mean_iters", ref.stats.Warm.MeanIters)
		rep.set("corr.fallbacks", float64(ref.stats.Warm.Fallbacks))
	}
	if n := pearsonWindows.Load(); n > 0 {
		rep.set("corr.ns_per_window_pearson", sec("corr.series")*1e9/float64(n))
	}
	rep.set("market.generate_day_s", sec("market.generate_day")/days)
	rep.set("market.quotes_per_day", float64(prep.rawQuotes))
	rep.set("clean.batch_ns_per_quote", sec("clean.batch")*1e9/(days*float64(prep.rawQuotes)))
	rep.set("clean.reject_frac", float64(prep.rejected)/float64(prep.rawQuotes))
	rep.set("series.sample_ns_per_quote", sec("series.sample")*1e9/(days*float64(prep.rawQuotes-prep.rejected)))
	if cfg.Screen.Enabled() {
		rep.set("screen.select_s", sec("screen.select")/days)
		rep.set("screen.prune_ratio", prep.screen.PruneRatio())
	}
	rep.set("strategy.run_day_s", sec("strategy.run_day"))
	rep.set("strategy.run_day_us", sec("strategy.run_day")*1e6/float64(runDayCalls.Load()))
	rep.set("strategy.trades", float64(res.TradeCount))
	rep.set("backtest.prepare_day_s", (sec("market.generate_day")+sec("clean.batch")+sec("series.sample"))/days)
	rep.set("backtest.trade_returns_s", sec("backtest.trade_returns"))
	rep.set("sweep.journal_s", sec("sweep.journal_append"))
	var appends []float64
	for _, s := range spans {
		if s.Name == "sweep.journal_append" {
			appends = append(appends, float64(s.End-s.Start)/1e3)
		}
	}
	rep.set("sweep.journal_append_us_p50", stats.Median(appends))
	if fi, err := os.Stat(path); err == nil {
		rep.set("sweep.journal_bytes_per_unit", float64(fi.Size())/float64(units))
	}
	rep.set("sweep.merge_s", sec("sweep.merge"))
	rep.set("sweep.units", float64(ref.stats.UnitsExecuted))
	rep.set("sweep.units_failed", float64(rep.Failed))
	rep.set("sweep.unattributed_frac", 1-(serial+parallel/float64(W))/ref.wall.Seconds())
	rep.set("harness.trace_overhead_frac", tracedWall.Seconds()/ref.wall.Seconds()-1)
	rep.set("harness.untraced_wall_s", ref.wall.Seconds())
	rep.set("harness.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	rep.set("harness.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.set("harness.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	res = nil

	t0 = time.Now()
	j2, _, _, err := sweep.OpenJournal(path, sweep.PlanHeader(runner, sweep.Shard{Index: 0, Count: 1}))
	if err != nil {
		return nil, fmt.Errorf("bench: reopen journal: %w", err)
	}
	rep.set("sweep.open_resume_s", time.Since(t0).Seconds())
	j2.Close()

	const emptyTasks = 1 << 16
	t0 = time.Now()
	if err := sched.New(W).Map(ctx, emptyTasks, func(context.Context, int) error { return nil }); err != nil {
		return nil, err
	}
	rep.set("sched.map_ns_per_task", float64(time.Since(t0).Nanoseconds())/emptyTasks)

	if w.Name == wRobust {
		if err := farmProbe(ctx, cfg, o.work, refHash, ref.wall, rep); err != nil {
			return nil, err
		}
	}
	rep.note("result_hash", refHash)
	if err := tr.WriteJSONL(filepath.Join(o.Dir, "trace_"+w.Name+".jsonl"), counterDelta(counters)); err != nil {
		return nil, err
	}
	return rep, nil
}

// distinctWindows returns the ascending distinct window lengths M of
// the levels.
func distinctWindows(levels []strategy.Params) []int {
	var ms []int
	for _, lv := range levels {
		if !slices.Contains(ms, lv.M) {
			ms = append(ms, lv.M)
		}
	}
	slices.Sort(ms)
	return ms
}
