// Command mmpipeline runs the Figure-1 MarketMiner DAG end to end over
// one trading day of quotes: collector → tick cleaning → OHLC bar
// accumulation → technical analysis → parallel correlation engine →
// pair-trading strategy node(s) → master order book. Quotes come from
// the synthetic generator or from a CSV file produced by mmgen (the
// "File Collector" adapter).
//
// Usage:
//
//	mmpipeline -stocks 10                    # synthetic day, live DAG
//	mmpipeline -in taq.csv -day 0            # replay a file
//	mmpipeline -connect host:9000            # subscribe to an mmfeed server
//	mmpipeline -ctype maronna -m 100 -w 60   # engine configuration
//
// Fault tolerance:
//
//	mmpipeline -connect host:9000 -chaos seed=7,cut=65536,partition=4
//	    dial through injected cuts and refused connections (the CRC
//	    wire protocol plus resume-from-sequence must keep the results
//	    identical to a clean run);
//	mmpipeline -supervise -snapshot engine.snap -quarantine poison.quar
//	    run the DAG under the supervision runtime: panic isolation,
//	    poison-message quarantine, and crash-safe correlation-engine
//	    snapshots (a restart resumes from the last snapshot).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"marketminer"
	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/taq"
)

// options collects the flag values; run grew too many knobs for a
// positional parameter list.
type options struct {
	in, connect          string
	day, stocks          int
	seed                 int64
	ctype                string
	m, w                 int
	d                    float64
	workers              int
	dot                  bool
	chaos                string
	supervise            bool
	snapshot, quarantine string
	snapshotEvery        int
	drain                time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "CSV quote file (empty = synthetic)")
	flag.StringVar(&o.connect, "connect", "", "mmfeed server address (overrides -in/-stocks)")
	flag.IntVar(&o.day, "day", 0, "day index to replay/generate")
	flag.IntVar(&o.stocks, "stocks", 10, "universe size for synthetic data (max 61)")
	flag.Int64Var(&o.seed, "seed", 20080301, "synthetic data seed")
	flag.StringVar(&o.ctype, "ctype", "pearson", "correlation measure: pearson | maronna | combined")
	flag.IntVar(&o.m, "m", 100, "correlation window M")
	flag.IntVar(&o.w, "w", 60, "correlation average window W")
	flag.Float64Var(&o.d, "d", 0.0002, "divergence threshold (fraction)")
	flag.IntVar(&o.workers, "workers", 0, "correlation workers (0 = GOMAXPROCS)")
	flag.BoolVar(&o.dot, "dot", false, "also print the executed DAG in Graphviz dot format")
	flag.StringVar(&o.chaos, "chaos", "", "deterministic fault-injection spec: applied to the dial path with -connect, to the quote stream otherwise")
	flag.BoolVar(&o.supervise, "supervise", false, "run the DAG under the supervision runtime")
	flag.StringVar(&o.snapshot, "snapshot", "", "crash-safe correlation-engine snapshot file (implies -supervise)")
	flag.StringVar(&o.quarantine, "quarantine", "", "poison-message quarantine file (implies -supervise)")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", 25, "matrices between engine snapshots")
	flag.DurationVar(&o.drain, "drain", 0, "graceful-drain timeout on interrupt (0 = abort immediately)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mmpipeline:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ct, err := corr.ParseType(o.ctype)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var ch *marketminer.Chaos
	if o.chaos != "" {
		spec, err := marketminer.ParseChaosSpec(o.chaos)
		if err != nil {
			return err
		}
		ch = marketminer.NewChaos(spec)
	}

	// Resolve the quote source: networked collector, CSV replay, or
	// synthetic generation — the three interchangeable collector
	// adapters of Figure 1.
	var (
		src       marketminer.QuoteSource
		uni       *marketminer.Universe
		collector *marketminer.FeedCollector
	)
	if o.connect != "" {
		ccfg := marketminer.FeedCollectorConfig{Addr: o.connect}
		if ch != nil {
			// Chaos on the networked path wraps the dialer: faults hit
			// the wire, and the protocol must recover them losslessly.
			ccfg.Dial = ch.Dialer(feed.Dialer(o.connect))
			fmt.Printf("chaos: injecting faults on the dial path: %s\n", ch.Spec())
		}
		collector = marketminer.NewFeedCollector(ccfg)
		go collector.Run(ctx)
		uctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		uni, err = collector.Universe(uctx)
		cancel()
		if err != nil {
			return fmt.Errorf("connecting to feed %s: %w", o.connect, err)
		}
		src = marketminer.ChannelSource(collector.Quotes())
		fmt.Printf("feed: connected to %s, %d stocks\n", o.connect, uni.Len())
	} else {
		var quotes []taq.Quote
		if o.in != "" {
			quotes, uni, err = loadCSV(o.in, o.day)
		} else {
			quotes, uni, err = synthetic(o.stocks, o.seed, o.day)
		}
		if err != nil {
			return err
		}
		src = marketminer.SliceSource(quotes)
		if ch != nil {
			// Chaos on an in-process source perturbs the data itself
			// (drops, duplicates, reorders) — visible damage for
			// exercising the cleaning stage and the supervision runtime.
			src = ch.Source(src)
			fmt.Printf("chaos: perturbing the quote stream: %s\n", ch.Spec())
		}
		fmt.Printf("feed: %d quotes, %d stocks, day %d\n", len(quotes), uni.Len(), o.day)
	}

	p := marketminer.DefaultParams()
	p.Ctype = ct
	p.M = o.m
	p.W = o.w
	p.D = o.d
	cfg := marketminer.PipelineConfig{
		Universe: uni,
		Params:   []marketminer.Params{p},
		Workers:  o.workers,
	}
	if o.supervise || o.snapshot != "" || o.quarantine != "" {
		cfg.Supervise = &marketminer.SuperviseOptions{
			SnapshotPath:   o.snapshot,
			SnapshotEvery:  o.snapshotEvery,
			QuarantinePath: o.quarantine,
			DrainTimeout:   o.drain,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "supervise: "+format+"\n", args...)
			},
		}
	}
	start := time.Now()
	res, err := marketminer.RunLivePipelineFrom(ctx, cfg, src, o.day)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if collector != nil {
		st := collector.Stats()
		fmt.Printf("collector: %d connects, %d disconnects, %d duplicates skipped, %d order violations\n",
			st.Connects, st.Disconnects, st.Duplicates, st.OrderViolations)
	}

	fmt.Printf("\nFIGURE 1 PIPELINE — completed in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  quotes in / cleaned     %8d / %d (%.2f%% rejected)\n",
		res.QuotesIn, res.QuotesClean,
		100*float64(res.QuotesIn-res.QuotesClean)/max1(float64(res.QuotesIn)))
	fmt.Printf("  correlation matrices    %8d (%.0f matrices/sec)\n",
		res.Matrices, float64(res.Matrices)/max1(elapsed.Seconds()))
	fmt.Printf("  trades completed        %8d\n", len(res.Trades[0]))
	fmt.Printf("  order requests          %8d\n", res.Orders)
	fmt.Printf("  book flat at close      %8v\n", res.BookFlat)
	fmt.Printf("  realised cash P&L       %8.2f\n", res.CashPnL)
	// Messages, not quotes: the quote edges carry batches whose sizes
	// follow the backlog, so those three rows vary from run to run.
	fmt.Println("\n  node (messages)           received     emitted")
	for _, s := range res.NodeStats {
		fmt.Printf("  %-24s %10d %11d\n", s.Name, s.Received, s.Emitted)
	}
	if sup := res.Supervision; sup != nil {
		fmt.Printf("\nSUPERVISION\n")
		if sup.Resumed {
			fmt.Printf("  resumed from snapshot at interval %d\n", sup.ResumeCursor)
		}
		if sup.ColdStart != "" {
			fmt.Printf("  cold start: %s\n", sup.ColdStart)
		}
		fmt.Printf("  snapshots written       %8d\n", sup.Snapshots)
		for _, st := range sup.Stages {
			if st.Panics > 0 || st.Quarantined > 0 || st.Skipped > 0 {
				fmt.Printf("  stage %-18s %d panics, %d quarantined, %d skipped\n",
					st.Name, st.Panics, st.Quarantined, st.Skipped)
			}
		}
	}
	if ch != nil {
		fmt.Printf("\nchaos: injected %+v\n", ch.Stats())
	}
	if o.dot {
		fmt.Println("\n" + res.GraphDOT)
	}
	return nil
}

func max1(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}

// The day loaders, shared with mmfeed: CSV replay (-in) and synthetic
// generation.
var (
	loadCSV   = taq.ReadDay
	synthetic = market.SyntheticDay
)
