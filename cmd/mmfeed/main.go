// Command mmfeed serves a quote stream over the binary feed protocol:
// the networked edge of the paper's collector stage. It replays a
// historical TAQ CSV file (mmgen output) or generates a synthetic day
// live, and distributes it to any number of mmpipeline subscribers
// (per-client bounded queues, slow-consumer eviction, resume-from-
// sequence on reconnect).
//
// Usage:
//
//	mmfeed -listen :9000 -stocks 10              # synthetic day, served live
//	mmfeed -listen :9000 -in taq.csv -day 0      # replay an mmgen file
//	mmfeed -rate 50000                           # pace ≈ 50k quotes/sec
//	mmfeed -chaos seed=7,corrupt=8192,cut=65536  # serve through injected faults
//
// Pair it with:
//
//	mmpipeline -connect host:9000
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"marketminer"
	"marketminer/internal/market"
	"marketminer/internal/taq"
)

func main() {
	var (
		listen = flag.String("listen", ":9000", "address to serve the feed on")
		in     = flag.String("in", "", "CSV quote file (empty = synthetic)")
		day    = flag.Int("day", 0, "day index to replay/generate")
		stocks = flag.Int("stocks", 10, "universe size for synthetic data (max 61)")
		seed   = flag.Int64("seed", 20080301, "synthetic data seed")
		batch  = flag.Int("batch", 256, "quotes per wire batch")
		rate   = flag.Float64("rate", 0, "pace the replay to ≈ this many quotes/sec (0 = full speed)")
		chaosF = flag.String("chaos", "", "deterministic fault-injection spec for served connections, e.g. seed=7,corrupt=8192,cut=65536 (empty = off)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *listen, *in, *day, *stocks, *seed, *batch, *rate, *chaosF); err != nil {
		fmt.Fprintln(os.Stderr, "mmfeed:", err)
		os.Exit(1)
	}
}

// run resolves the quote source, binds the listener and serves until
// ctx is cancelled (the stream Finishes once fully published; late
// subscribers keep getting the retained log).
func run(ctx context.Context, listen, in string, day, stocks int, seed int64, batch int, rate float64, chaosSpec string) error {
	quotes, uni, err := load(in, day, stocks, seed)
	if err != nil {
		return err
	}
	var ch *marketminer.Chaos
	if chaosSpec != "" {
		spec, err := marketminer.ParseChaosSpec(chaosSpec)
		if err != nil {
			return err
		}
		ch = marketminer.NewChaos(spec)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("mmfeed: serving %d quotes (%d stocks, day %d) on %s\n", len(quotes), uni.Len(), day, l.Addr())
	if ch != nil {
		fmt.Printf("mmfeed: injecting faults on every served connection: %s\n", ch.Spec())
		l = ch.Listener(l)
		defer func() { fmt.Printf("mmfeed: chaos injected: %+v\n", ch.Stats()) }()
	}
	return serve(ctx, l, quotes, uni, batch, rate)
}

// serve is the listener-in-hand core of run, separated so tests can
// bind their own loopback port.
func serve(ctx context.Context, l net.Listener, quotes []taq.Quote, uni *marketminer.Universe, batch int, rate float64) error {
	s, err := marketminer.NewFeedServer(marketminer.FeedServerConfig{Universe: uni, BatchSize: batch})
	if err != nil {
		l.Close()
		return err
	}
	defer s.Close()
	go s.Serve(l)

	if err := publish(ctx, s, quotes, rate); err != nil {
		return err
	}
	s.Finish()
	st := s.Stats()
	fmt.Printf("mmfeed: stream complete — %d quotes in %d batches, %d subscribers served\n",
		st.Quotes, st.Batches, st.Served)

	<-ctx.Done()
	st = s.Stats()
	fmt.Printf("mmfeed: shutting down — served %d subscribers (%d evicted)\n", st.Served, st.Evicted)
	return nil
}

// publish feeds the quotes into the server, paced to ≈ rate quotes/sec
// when rate > 0 (sleeping every chunk keeps the granularity coarse
// enough for the scheduler while holding the average rate). The server
// seals subslices of quotes into its log rather than copying them, so
// the loaded day is the one copy held; nothing writes to it afterwards.
func publish(ctx context.Context, s *marketminer.FeedServer, quotes []taq.Quote, rate float64) error {
	if rate <= 0 {
		s.PublishBatch(quotes)
		return nil
	}
	const chunk = 64
	interval := time.Duration(float64(chunk) / rate * float64(time.Second))
	t := time.NewTicker(interval)
	defer t.Stop()
	for len(quotes) > 0 {
		n := min(chunk, len(quotes))
		s.PublishBatch(quotes[:n])
		s.Flush()
		quotes = quotes[n:]
		if len(quotes) == 0 {
			break
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// loadCSV is the CSV day loader, shared with mmpipeline -in.
var loadCSV = taq.ReadDay

// load resolves the quote source: CSV replay or synthetic generation.
func load(in string, day, stocks int, seed int64) ([]taq.Quote, *marketminer.Universe, error) {
	if in != "" {
		return loadCSV(in, day)
	}
	return market.SyntheticDay(stocks, seed, day)
}
