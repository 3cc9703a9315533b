package market

import (
	"fmt"
	"testing"

	"marketminer/internal/taq"
)

// TestGenerateDayMatchesParentDigest pins GenerateDay's stream, every
// field of every quote in order, on the benchmark's day (synthetic
// symbols, uniform liquidity) at 61 stocks for two seeds and at 400
// stocks. The digests were recorded while the day was still gathered
// and sorted by sort.Slice, whose order on equal SeqTimes is
// unspecified; so each pinned day must also hold no two equal
// SeqTimes, and a tie that ever appears fails here rather than
// reordering silently. The 400-stock day runs without -race and
// -short only; the 61-stock days exercise the same code.
func TestGenerateDayMatchesParentDigest(t *testing.T) {
	cases := []struct {
		stocks int
		seed   int64
		quotes int
		want   uint64
	}{
		{61, 20080301, 712268, 0x8339ed10ba4fdab2},
		{61, 7, 714957, 0x48fc4adf292e33d8},
		{400, 20080301, 4679932, 0x8e82a6c11cd119a0},
	}
	for _, c := range cases {
		if c.stocks > 61 && (testing.Short() || raceEnabled) {
			continue // 4.7 M quotes: ≈ 2 s plain, ≈ 45 s under -race
		}
		u, err := taq.NewUniverse(taq.SyntheticSymbols(c.stocks))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Universe, cfg.Seed, cfg.Days, cfg.LiquiditySpread = u, c.seed, 1, 1
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		day, err := g.GenerateDay(0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(day.Quotes); k++ {
			if day.Quotes[k].SeqTime == day.Quotes[k-1].SeqTime {
				t.Errorf("%d stocks seed %d: quotes %d and %d tie at SeqTime %v", c.stocks, c.seed, k-1, k, day.Quotes[k].SeqTime)
			}
		}
		if got := dayHash(day.Quotes); len(day.Quotes) != c.quotes || got != c.want {
			t.Errorf("%d stocks seed %d: %d quotes, digest %#x; want %d, %#x", c.stocks, c.seed, len(day.Quotes), got, c.quotes, c.want)
		}
	}
}

// BenchmarkGenerateDay times GenerateDay on the benchmark's day at 61
// and 400 stocks, in quotes per second.
func BenchmarkGenerateDay(b *testing.B) {
	for _, stocks := range []int{61, 400} {
		b.Run(fmt.Sprint(stocks), func(b *testing.B) {
			u, err := taq.NewUniverse(taq.SyntheticSymbols(stocks))
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Universe, cfg.Days, cfg.LiquiditySpread = u, 1, 1
			g, err := NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var quotes int
			for i := 0; i < b.N; i++ {
				day, err := g.GenerateDay(0)
				if err != nil {
					b.Fatal(err)
				}
				quotes += len(day.Quotes)
			}
			b.ReportMetric(float64(quotes)/b.Elapsed().Seconds(), "quotes/s")
		})
	}
}
