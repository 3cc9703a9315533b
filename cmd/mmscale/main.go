// Command mmscale reproduces the Section IV/V performance study: it
// measures the sequential per-(pair, day, parameter-set) cost (the
// paper's "approximately 2 seconds" in Matlab), extrapolates it to the
// paper's prohibitive full-sweep estimates (854 hours / ~445 days /
// tens of years), and then compares the three execution strategies —
// sequential, SGE-like farm, and the integrated MarketMiner engine —
// on the same reduced workload.
//
// Usage:
//
//	mmscale                      # default: 10 stocks, 2 days, 2 levels
//	mmscale -stocks 20 -days 3
//	mmscale -ctype maronna       # unit-cost measure for one treatment
//	mmscale -bench-json BENCH_corr.json   # machine-readable kernel benchmarks
//	mmscale -scaling-json BENCH_scaling.json   # 1..NumCPU engine scaling curve
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/prof"
	"marketminer/internal/report"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

func main() {
	var (
		stocks      = flag.Int("stocks", 10, "universe size (2..1024; past 61 uses synthetic tickers)")
		days        = flag.Int("days", 2, "trading days")
		levels      = flag.Int("levels", 2, "parameter levels (max 14)")
		seed        = flag.Int64("seed", 20080301, "data seed")
		workers     = flag.Int("workers", 0, "workers (0 = GOMAXPROCS)")
		sameM       = flag.Bool("same-m", false, "restrict levels to M=100 so every set shares one correlation series (maximum integrated-engine sharing)")
		benchJSON   = flag.String("bench-json", "", "run the correlation kernel benchmark suite and write machine-readable results to this file")
		scalingJSON = flag.String("scaling-json", "", "measure the matrix engine's 1..NumCPU worker scaling curve and write it to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the approach comparison to this file")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()
	if err := run(*stocks, *days, *levels, *seed, *workers, *sameM, *benchJSON, *scalingJSON, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "mmscale:", err)
		os.Exit(1)
	}
}

func run(stocks, days, levels int, seed int64, workers int, sameM bool, benchJSON, scalingJSON, cpuProfile, memProfile string) error {
	if stocks < 2 || stocks > 1024 {
		return fmt.Errorf("stocks must be in [2, 1024]")
	}
	if levels < 1 || levels > 14 {
		return fmt.Errorf("levels must be in [1, 14]")
	}
	uni, err := taq.NewUniverse(taq.SyntheticSymbols(stocks))
	if err != nil {
		return err
	}
	mc := market.DefaultConfig()
	mc.Universe = uni
	mc.Days = days
	mc.Seed = seed
	lvls := strategy.BaseGrid()
	if sameM {
		var only []strategy.Params
		for _, p := range lvls {
			if p.M == 100 {
				only = append(only, p)
			}
		}
		lvls = only
	}
	if levels > len(lvls) {
		levels = len(lvls)
	}
	cfg := backtest.Config{
		Market:  mc,
		Levels:  lvls[:levels],
		Workers: workers,
	}
	fmt.Printf("workload: %d stocks (%d pairs) x %d days x %d levels x 3 types on %d core(s)\n",
		stocks, uni.NumPairs(), days, levels, runtime.GOMAXPROCS(0))
	fmt.Printf("robust kernel SIMD: %s\n\n", corr.SIMDTier())

	// --- Unit cost per correlation treatment (Section IV) ---------
	gen, err := market.NewGenerator(mc)
	if err != nil {
		return err
	}
	dd, err := backtest.PrepareDay(cfg, gen, 0)
	if err != nil {
		return err
	}
	fmt.Println("SEQUENTIAL UNIT COST — one (pair, day, parameter set) return vector")
	var maronnaUnit float64
	for _, ct := range corr.Types() {
		p := strategy.DefaultParams().WithType(ct)
		// Warm once, then time a few pairs.
		if _, err := backtest.RunPairDaySequential(p, dd, 0, 1, 0); err != nil {
			return err
		}
		const reps = 5
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := backtest.RunPairDaySequential(p, dd, 0, 1+r%(stocks-1), 0); err != nil {
				return err
			}
		}
		unit := time.Since(start).Seconds() / reps
		fmt.Printf("  %-10s %12.6f s\n", ct, unit)
		if ct == corr.Maronna {
			maronnaUnit = unit
		}
	}
	fmt.Println()

	// --- Paper-scale extrapolation (Section IV arithmetic) --------
	ext := report.Extrapolation{UnitSeconds: maronnaUnit, Pairs: 1830, Days: 20, Sets: 42}
	fmt.Println(ext)

	// --- Approach comparison on the reduced workload (Section V) --
	ctx := context.Background()
	stopProf, err := prof.Start(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	startFarm := time.Now()
	farmRes, err := backtest.Farm(ctx, cfg)
	if err != nil {
		stopProf()
		return err
	}
	farmSec := time.Since(startFarm).Seconds()

	startInt := time.Now()
	intRes, err := backtest.Run(ctx, cfg)
	if err != nil {
		stopProf()
		return err
	}
	intSec := time.Since(startInt).Seconds()
	if err := stopProf(); err != nil {
		return err
	}

	if farmRes.TradeCount != intRes.TradeCount {
		return fmt.Errorf("runner mismatch: farm %d trades, integrated %d", farmRes.TradeCount, intRes.TradeCount)
	}
	fmt.Println(report.SpeedupTable(
		fmt.Sprintf("SECTION V — APPROACH COMPARISON (%d trades, identical results)", intRes.TradeCount),
		[]report.Speedup{
			{Name: "approach 2: per-pair farm (SGE-like)", Seconds: farmSec},
			{Name: "approach 3: integrated engine", Seconds: intSec},
		}))
	fmt.Println("the integrated engine computes each (Ctype, M) correlation series once\n" +
		"per day and shares it across every pair and parameter set; the farm\n" +
		"recomputes it per (pair, set), which is the asymptotic waste the paper\n" +
		"identifies as 'the main bottleneck'.")

	if benchJSON != "" {
		fmt.Println("\nrunning correlation kernel benchmark suite ...")
		sw := sweepReport{FarmSeconds: farmSec, IntegratedSeconds: intSec, Trades: intRes.TradeCount}
		if err := writeBenchJSON(benchJSON, dd, workers, sw); err != nil {
			return err
		}
		fmt.Printf("benchmark results saved to %s\n", benchJSON)
	}
	if scalingJSON != "" {
		fmt.Println("\nmeasuring matrix engine scaling curve ...")
		if err := writeScalingJSON(scalingJSON, dd); err != nil {
			return err
		}
		fmt.Printf("scaling curve saved to %s\n", scalingJSON)
	}
	return nil
}
