// Command mmbacktest runs the paper's Section V experiment: the
// brute-force backtest of the canonical pair-trading strategy over all
// pairs × parameter sets × trading days, comparing the Pearson,
// Maronna and Combined correlation treatments, and prints Tables
// III–V plus the Figure 2 box-plot statistics.
//
// The sweep can run monolithically in memory, or orchestrated through
// the internal/sweep layer: checkpointed to an append-only journal
// (kill it, rerun it, it resumes), and sharded across processes or
// machines with -shard i/n — each shard writes its own journal and
// "mmreport -merge" combines them into the full result.
//
// Usage:
//
//	mmbacktest -scale tiny                  # seconds, qualitative
//	mmbacktest -scale small                 # minutes
//	mmbacktest -scale paper                 # the full 61x20x42 sweep
//	mmbacktest -scale paper -journal p.journal        # checkpointed + resumable
//	mmbacktest -scale paper -journal s0.journal -shard 0/2   # machine 1
//	mmbacktest -scale paper -journal s1.journal -shard 1/2   # machine 2
//	mmbacktest -scale tiny -json out.json   # save raw results
//	mmbacktest -print-grid                  # show Table I's 42 sets
//	mmbacktest -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"marketminer"
	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/prof"
	"marketminer/internal/report"
	"marketminer/internal/screen"
	"marketminer/internal/sweep"
)

// options collects the flag values; keeping them in one struct keeps
// run testable without a dozen positional parameters.
type options struct {
	scale      string
	seed       int64
	levels     int
	workers    int
	jsonOut    string
	boxplots   bool
	printGrid  bool
	cpuProfile string
	memProfile string

	journal  string // checkpoint journal path ("" = in-memory sweep)
	shard    string // "i/n" shard assignment
	block    int    // pairs per sweep block (0 = default)
	maxUnits int    // stop after this many units (0 = run to completion)

	screenFrac   float64 // SSD pre-screening: keep this fraction of pairs (0 = off)
	screenSSD    float64 // SSD pre-screening: absolute SSD cap (0 = off)
	screenMin    int     // SSD pre-screening: minimum surviving pairs
	screenStride int     // SSD pre-screening: path subsample stride
}

func main() {
	var o options
	flag.StringVar(&o.scale, "scale", "tiny", "experiment scale: tiny | small | paper")
	flag.Int64Var(&o.seed, "seed", 20080301, "random seed")
	flag.IntVar(&o.levels, "levels", 0, "restrict to first N parameter levels (0 = all 14)")
	flag.IntVar(&o.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	flag.StringVar(&o.jsonOut, "json", "", "write raw results to this JSON file")
	flag.BoolVar(&o.boxplots, "boxplots", true, "print Figure 2 box-plot statistics")
	flag.BoolVar(&o.printGrid, "print-grid", false, "print the Table I parameter grid and exit")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the sweep to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a post-sweep heap profile to this file")
	flag.StringVar(&o.journal, "journal", "", "checkpoint journal path: completed units are appended here and an interrupted sweep resumes from it")
	flag.StringVar(&o.shard, "shard", "0/1", "run shard i of n (requires -journal); merge shard journals with mmreport -merge")
	flag.IntVar(&o.block, "block", 0, "pairs per sweep work-unit block (0 = default 128)")
	flag.IntVar(&o.maxUnits, "max-units", 0, "execute at most N units this invocation, then checkpoint and exit (0 = no limit)")
	flag.Float64Var(&o.screenFrac, "screen-frac", 0, "pre-screen pairs: keep this fraction with the smallest normalized-price SSD (0 = screening off)")
	flag.Float64Var(&o.screenSSD, "screen-ssd", 0, "pre-screen pairs: drop pairs whose path SSD exceeds this absolute cap (0 = off)")
	flag.IntVar(&o.screenMin, "screen-min", 0, "pre-screen pairs: never prune below this many surviving pairs")
	flag.IntVar(&o.screenStride, "screen-stride", 1, "pre-screen pairs: subsample the price path at this stride")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mmbacktest:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.printGrid {
		fmt.Println("TABLE I — STRATEGY PARAMETER SETS (14 levels x 3 correlation types)")
		for i, p := range marketminer.ParamGrid() {
			fmt.Printf("%2d: %v\n", i+1, p)
		}
		return nil
	}

	var sc marketminer.Scale
	switch o.scale {
	case "tiny":
		sc = marketminer.ScaleTiny
	case "small":
		sc = marketminer.ScaleSmall
	case "paper":
		sc = marketminer.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	cfg := marketminer.SweepConfig(sc, o.seed)
	cfg.Workers = o.workers
	cfg.Screen = screen.Config{TopFrac: o.screenFrac, MaxSSD: o.screenSSD, MinKeep: o.screenMin, Stride: o.screenStride}
	if o.levels > 0 {
		all := marketminer.ParamLevels()
		if o.levels > len(all) {
			o.levels = len(all)
		}
		cfg.Levels = all[:o.levels]
	}

	shard, err := sweep.ParseShard(o.shard)
	if err != nil {
		return err
	}
	if (shard.Count > 1 || o.maxUnits > 0) && o.journal == "" {
		return fmt.Errorf("-shard/-max-units require -journal (shards coordinate through their journals)")
	}

	nLevels := len(cfg.Levels)
	if nLevels == 0 {
		nLevels = 14
	}
	fmt.Printf("sweep: %d stocks (%d pairs) x %d days x %d levels x 3 types\n",
		cfg.Market.Universe.Len(), cfg.Market.Universe.NumPairs(), cfg.Market.Days, nLevels)
	fmt.Printf("robust kernel SIMD: %s\n", corr.SIMDTier())

	stopProf, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	start := time.Now()
	var res *marketminer.BacktestResult
	if o.journal != "" {
		res, err = runOrchestrated(cfg, shard, o)
	} else {
		cfg.Progress = func(day, total, trades int) {
			fmt.Printf("  day %2d/%d: %6d trades\n", day+1, total, trades)
		}
		res, err = marketminer.RunBacktest(context.Background(), cfg)
	}
	if err != nil {
		stopProf()
		return err
	}
	elapsed := time.Since(start)
	if err := stopProf(); err != nil {
		return err
	}
	if res == nil {
		// A multi-process shard (or a -max-units budget slice) is done;
		// table rendering waits for the merge.
		fmt.Printf("shard %s finished its slice in %v; combine journals with:\n  mmreport -merge 'shard*.journal'\n",
			shard, elapsed.Round(time.Millisecond))
		return nil
	}
	fmt.Printf("completed in %v: %d trades\n\n", elapsed.Round(time.Millisecond), res.TradeCount)

	fmt.Println(marketminer.FormatTableIII(res))
	fmt.Println(marketminer.FormatTableIV(res))
	fmt.Println(marketminer.FormatTableV(res))
	if o.boxplots {
		fmt.Println(marketminer.FormatFigure2(res))
	}

	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := backtest.SaveJSON(f, res); err != nil {
			return err
		}
		fmt.Printf("raw results saved to %s\n", o.jsonOut)
	}
	return nil
}

// runOrchestrated executes this process's shard through the sweep
// layer and, when the whole sweep lives in this one process and is
// complete, merges its own journal into the printable Result.
// It returns (nil, nil) when the result is not yet mergeable here —
// other shards own the rest of the units, or a -max-units budget
// paused the run.
func runOrchestrated(cfg marketminer.BacktestConfig, shard sweep.Shard, o options) (*marketminer.BacktestResult, error) {
	st, err := sweep.Run(context.Background(), sweep.RunConfig{
		Config:        cfg,
		BlockSize:     o.block,
		Shard:         shard,
		JournalPath:   o.journal,
		Limit:         o.maxUnits,
		ProgressEvery: 2 * time.Second,
		Progress: func(p sweep.ProgressInfo) {
			fmt.Println("  " + report.ProgressLine(p.Shard.String(), p.Done, p.Total, p.Rate, p.ETA, p.Trades, p.WarmHitFraction))
		},
	})
	if err != nil {
		return nil, err
	}
	if st.Recovered != nil {
		fmt.Printf("  healed damaged journal tail: %v\n", st.Recovered)
	}
	if st.UnitsSkipped > 0 {
		fmt.Printf("  resumed from checkpoint: %d units restored, %d executed\n", st.UnitsSkipped, st.UnitsExecuted)
	}
	if st.Paused {
		fmt.Printf("  unit budget reached: %d/%d units checkpointed; rerun to continue\n",
			st.UnitsSkipped+st.UnitsExecuted, st.UnitsTotal)
		return nil, nil
	}
	if shard.Count > 1 {
		return nil, nil
	}
	res, rep, err := sweep.MergeFiles([]string{o.journal})
	if err != nil {
		return nil, err
	}
	fmt.Println("  " + report.MergeSummary(rep.Files, rep.ShardCount, rep.Units, rep.UnitsTotal, rep.Duplicates, len(rep.Corrupt)))
	return res, nil
}
