// Command mmfarm runs the distributed sweep farm: one coordinator
// (`mmfarm serve`) deals the sweep's (day × pair-block × param-set)
// units to any number of worker processes (`mmfarm work`) over the
// internal/feed wire codec, journaling every completed unit into the
// standard checkpoint journal. Workers can be SIGKILLed, partitioned
// or fed a chaos-injected link mid-sweep; lease expiry and generation
// fencing reassign their work and the merged output stays
// byte-identical to a single-host run.
//
// Every cooperating process must be started with the same sweep flags
// (-scale, -seed, -levels, -block, -screen-*): the configuration
// fingerprint is checked at join and mismatched workers are refused.
//
// The coordinator itself is crash-tolerant: its durable state (epoch,
// lease table, pending order) lives in a CRC-sealed manifest next to
// the journal, so a SIGKILLed coordinator restarted with the same
// -journal re-serves only unfinished units, and `-standby` runs a warm
// standby that tails that manifest and takes over under a higher,
// fencing epoch when the primary stops rewriting it. Workers given a
// comma-separated -connect list rotate through it on redial and resume
// their prior session, redelivering completed-but-unacknowledged
// results instead of recomputing them.
//
// Usage:
//
//	mmfarm serve -listen :9444 -journal farm.journal -scale paper
//	mmfarm serve -listen :9445 -journal farm.journal -scale paper -standby   # warm standby
//	mmfarm work -connect host:9444,host:9445 -scale paper        # on each box
//	mmfarm work -connect host:9444 -scale paper -chaos 'seed=7,corrupt=8192'
//	mmfarm serve -listen :9444 -journal farm.journal -scale paper -merge-out results.json
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"marketminer"
	"marketminer/internal/backtest"
	"marketminer/internal/farm"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
	"marketminer/internal/screen"
	"marketminer/internal/sweep"
)

// sweepOpts are the flags every farm process shares; they must produce
// the exact configuration (and so the exact fingerprint) on every
// host.
type sweepOpts struct {
	scale        string
	seed         int64
	levels       int
	workers      int
	block        int
	screenFrac   float64
	screenSSD    float64
	screenMin    int
	screenStride int
	quiet        bool
}

func (o *sweepOpts) register(fs *flag.FlagSet) {
	fs.StringVar(&o.scale, "scale", "tiny", "experiment scale: tiny | small | paper")
	fs.Int64Var(&o.seed, "seed", 20080301, "random seed")
	fs.IntVar(&o.levels, "levels", 0, "restrict to first N parameter levels (0 = all 14)")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&o.block, "block", 0, "pairs per sweep work-unit block (0 = default 128)")
	fs.Float64Var(&o.screenFrac, "screen-frac", 0, "pre-screen pairs: keep this fraction with the smallest normalized-price SSD (0 = off)")
	fs.Float64Var(&o.screenSSD, "screen-ssd", 0, "pre-screen pairs: absolute SSD cap (0 = off)")
	fs.IntVar(&o.screenMin, "screen-min", 0, "pre-screen pairs: minimum surviving pairs")
	fs.IntVar(&o.screenStride, "screen-stride", 1, "pre-screen pairs: path subsample stride")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-event log lines")
}

func (o *sweepOpts) config() (marketminer.BacktestConfig, error) {
	var sc marketminer.Scale
	switch o.scale {
	case "tiny":
		sc = marketminer.ScaleTiny
	case "small":
		sc = marketminer.ScaleSmall
	case "paper":
		sc = marketminer.ScalePaper
	default:
		return marketminer.BacktestConfig{}, fmt.Errorf("unknown scale %q", o.scale)
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
	return cfg, nil
}

func (o *sweepOpts) logf() func(string, ...any) {
	if o.quiet {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mmfarm serve|work [flags]   (-h for flags)")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "work":
		err = runWork(os.Args[2:])
	default:
		err = fmt.Errorf("unknown mode %q, want serve or work", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmfarm:", err)
		os.Exit(1)
	}
}

// signalContext cancels on SIGINT/SIGTERM so both modes shut down
// cleanly (the coordinator's journal retains everything accepted).
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("mmfarm serve", flag.ExitOnError)
	var o sweepOpts
	o.register(fs)
	listen := fs.String("listen", "127.0.0.1:9444", "address to accept workers on")
	journal := fs.String("journal", "", "checkpoint journal path (required); resumes if it exists")
	ttl := fs.Duration("ttl", farm.DefaultLeaseTTL, "lease TTL: silence budget before a worker's groups are reassigned")
	limit := fs.Int("limit", 0, "accept at most N units this invocation, then pause (0 = run to completion)")
	mergeOut := fs.String("merge-out", "", "on completion, merge the journal and write raw results JSON here")
	standby := fs.Bool("standby", false, "run as a warm standby: tail the primary's manifest and take over on silence")
	takeoverAfter := fs.Duration("takeover-after", 0, "standby only: manifest silence before taking over (0 = the lease TTL)")
	fs.Parse(args)
	if *journal == "" {
		return fmt.Errorf("-journal is required")
	}
	cfg, err := o.config()
	if err != nil {
		return err
	}

	cc := farm.CoordinatorConfig{
		Config:      cfg,
		BlockSize:   o.block,
		JournalPath: *journal,
		LeaseTTL:    *ttl,
		Limit:       *limit,
		Logf:        o.logf(),
		Progress: func(done, total int) {
			if !o.quiet && (done%50 == 0 || done == total) {
				fmt.Printf("  %d/%d units journaled\n", done, total)
			}
		},
	}

	ctx, cancel := signalContext()
	defer cancel()
	start := time.Now()
	var st *farm.CoordStats
	if *standby {
		// The listener is bound lazily at promotion, so a standby can
		// be configured with the primary's own address.
		fmt.Printf("mmfarm: standing by for %s (journal %s)\n", *listen, *journal)
		st, err = farm.RunStandby(ctx, farm.StandbyConfig{
			Coordinator:   cc,
			TakeoverAfter: *takeoverAfter,
			Logf:          o.logf(),
		}, func() (net.Listener, error) {
			l, err := net.Listen("tcp", *listen)
			if err == nil {
				fmt.Printf("mmfarm: standby promoted; coordinating on %s\n", l.Addr())
			}
			return l, err
		})
	} else {
		var c *farm.Coordinator
		c, err = farm.NewCoordinator(cc)
		if err != nil {
			return err
		}
		var l net.Listener
		l, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Printf("mmfarm: coordinating on %s (journal %s)\n", l.Addr(), *journal)
		st, err = c.Serve(ctx, l)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if st.Recovered != nil {
		fmt.Printf("  healed damaged journal tail: %v\n", st.Recovered)
	}
	fmt.Printf("farm: %d/%d units (%d restored, %d from %d worker join(s)) under epoch %d in %v\n",
		st.UnitsRestored+st.UnitsExecuted, st.UnitsTotal, st.UnitsRestored,
		st.UnitsExecuted, st.WorkersJoined, st.Epoch, elapsed.Round(time.Millisecond))
	for _, nc := range metrics.Counters() {
		if nc.Value > 0 && len(nc.Name) > 5 && nc.Name[:5] == "farm." {
			fmt.Printf("  %s = %d\n", nc.Name, nc.Value)
		}
	}
	if st.Paused {
		fmt.Printf("farm: unit budget reached; rerun with the same journal to continue\n")
		return nil
	}
	if *mergeOut != "" {
		res, rep, err := sweep.MergeFiles([]string{*journal})
		if err != nil {
			return err
		}
		f, err := os.Create(*mergeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := backtest.SaveJSON(f, res); err != nil {
			return err
		}
		fmt.Printf("farm: merged %d units (%d duplicates dropped) into %s\n", rep.Units, rep.Duplicates, *mergeOut)
	}
	return nil
}

func runWork(args []string) error {
	fs := flag.NewFlagSet("mmfarm work", flag.ExitOnError)
	var o sweepOpts
	o.register(fs)
	connect := fs.String("connect", "127.0.0.1:9444", "coordinator address(es), comma-separated: primary first, then standbys")
	name := fs.String("name", "", "worker name in coordinator logs (default host:pid)")
	heartbeat := fs.Duration("heartbeat", time.Second, "lease renewal cadence (keep well under the coordinator's -ttl)")
	chaosSpec := fs.String("chaos", "", "inject wire faults on the coordinator link, e.g. 'seed=7,corrupt=8192,cut=65536'")
	fs.Parse(args)
	cfg, err := o.config()
	if err != nil {
		return err
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	addrs := strings.Split(*connect, ",")
	for i := range addrs {
		// A blank entry would fail every visit of the redial rotation.
		if addrs[i] = strings.TrimSpace(addrs[i]); addrs[i] == "" {
			return fmt.Errorf("mmfarm work: -connect %q has an empty address", *connect)
		}
	}
	wc := farm.WorkerConfig{
		Config:         cfg,
		BlockSize:      o.block,
		Name:           *name,
		Dial:           feed.Dialer(addrs...),
		HeartbeatEvery: *heartbeat,
		Logf:           o.logf(),
	}
	if *chaosSpec != "" {
		spec, err := marketminer.ParseChaosSpec(*chaosSpec)
		if err != nil {
			return err
		}
		wc.Dial = marketminer.NewChaos(spec).Dialer(wc.Dial)
	}

	ctx, cancel := signalContext()
	defer cancel()
	fmt.Printf("mmfarm: worker %q computing for %s\n", *name, *connect)
	start := time.Now()
	st, err := farm.RunWorker(ctx, wc)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(st.Units) / elapsed.Seconds()
	fmt.Printf("worker %q: %d units in %d group(s) over %d session(s) (%d redials, %d rejoin(s), %d recovered) in %v — %.1f units/s, warm-hit %.0f%%\n",
		*name, st.Units, st.Groups, st.Sessions, st.Redials, st.Rejoins, st.Recovered,
		elapsed.Round(time.Millisecond), rate, 100*st.Warm.WarmHitFraction)
	return nil
}
