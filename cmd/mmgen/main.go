// Command mmgen generates synthetic TAQ quote data — the stand-in for
// the paper's proprietary NYSE March-2008 dataset — and writes it as
// CSV, one file per trading day or a single stream.
//
// Usage:
//
//	mmgen -out taq.csv -days 5 -stocks 20 -seed 42
//	mmgen -sample            # print a Table II style sample and exit
//
// The generator is deterministic in -seed; see internal/market for the
// factor model, breakdown events and contamination it injects.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"marketminer/internal/market"
	"marketminer/internal/taq"
)

func main() {
	var (
		out      = flag.String("out", "taq.csv", "output CSV path (one file, all days)")
		days     = flag.Int("days", 1, "trading days to generate")
		stocks   = flag.Int("stocks", 61, "universe size (2..1024; past 61 uses synthetic tickers)")
		seed     = flag.Int64("seed", 20080301, "random seed")
		rate     = flag.Float64("rate", 0.5, "quote arrivals per stock per second")
		contam   = flag.Float64("contamination", 0.004, "bad-tick probability")
		breakdn  = flag.Float64("breakdowns", 6, "expected breakdown events per stock per day")
		sample   = flag.Bool("sample", false, "print a Table II style sample and exit")
		sampleSz = flag.Int("sample-size", 12, "rows in the sample")
	)
	flag.Parse()
	if err := run(*out, *days, *stocks, *seed, *rate, *contam, *breakdn, *sample, *sampleSz); err != nil {
		fmt.Fprintln(os.Stderr, "mmgen:", err)
		os.Exit(1)
	}
}

func run(out string, days, stocks int, seed int64, rate, contam, breakdn float64, sample bool, sampleSz int) error {
	if stocks < 2 || stocks > 1024 {
		return fmt.Errorf("stocks must be in [2, 1024], got %d", stocks)
	}
	uni, err := taq.NewUniverse(taq.SyntheticSymbols(stocks))
	if err != nil {
		return err
	}
	cfg := market.DefaultConfig()
	cfg.Universe = uni
	cfg.Days = days
	cfg.Seed = seed
	cfg.QuoteRate = rate
	cfg.Contamination = contam
	cfg.BreakdownsPerDay = breakdn
	gen, err := market.NewGenerator(cfg)
	if err != nil {
		return err
	}

	if sample {
		var rows []taq.Quote
		if _, err := gen.StreamDay(0, func(q *taq.Quote) error {
			if len(rows) < sampleSz {
				rows = append(rows, *q)
			}
			return nil
		}); err != nil {
			return err
		}
		fmt.Println("TABLE II — SAMPLE DATA (synthetic TAQ)")
		fmt.Printf("%-9s %-6s %10s %10s %8s %8s\n", "Timestamp", "Symbol", "Bid", "Ask", "BidSize", "AskSize")
		for _, q := range rows {
			fmt.Printf("%-9s %-6s %10.2f %10.2f %8d %8d\n", q.Clock(), q.Symbol, q.Bid, q.Ask, q.BidSize, q.AskSize)
		}
		return nil
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	wrote, bad, err := writeDays(f, gen, days)
	// A failed close can leave the file short, so it fails the run.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d quotes (%d corrupted) for %d stocks x %d days to %s\n",
		wrote, bad, stocks, days, out)
	return nil
}

// writeDays writes days 0..days-1 to out as CSV, each quote straight
// from the generator's merge, and returns the quotes and bad ticks
// written.
func writeDays(out io.Writer, gen *market.Generator, days int) (wrote, bad int, err error) {
	w := taq.NewWriter(out)
	for d := 0; d < days; d++ {
		n := w.Count()
		day, err := gen.StreamDay(d, func(q *taq.Quote) error { return w.Write(*q) })
		if err != nil {
			return 0, 0, err
		}
		bad += day.NumBad
		fmt.Printf("day %2d: %d quotes (%d corrupted)\n", d, w.Count()-n, day.NumBad)
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	return w.Count(), bad, nil
}
