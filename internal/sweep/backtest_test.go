package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/portfolio"
	"marketminer/internal/screen"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// tinyBacktestConfig is internal/backtest's tinyConfig: 4 stocks, 2
// days, 2 levels × {Pearson, Maronna}.
func tinyBacktestConfig(t *testing.T, workers int) backtest.Config {
	t.Helper()
	u, err := taq.NewUniverse([]string{"A1", "A2", "B1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	lvl := strategy.DefaultParams()
	lvl.M, lvl.W, lvl.RT, lvl.D = 30, 20, 20, 0.005
	lvl2 := lvl
	lvl2.HP = 40
	return backtest.Config{
		Market: market.Config{
			Universe:         u,
			Seed:             7,
			Days:             2,
			QuoteRate:        0.25,
			NumSectors:       2,
			BreakdownsPerDay: 8,
			BreakdownMag:     0.006,
			Contamination:    0.002,
		},
		Levels:  []strategy.Params{lvl, lvl2},
		Types:   []corr.Type{corr.Pearson, corr.Maronna},
		Workers: workers,
	}
}

// resultDigest is the FNV-64a digest of every pair × param × day
// return set (its length, then each return's bits) followed by the
// trade count.
func resultDigest(res *backtest.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for p := range res.Series {
		for k := range res.Series[p] {
			for _, day := range res.Series[p][k].Daily {
				put(uint64(len(day)))
				for _, r := range day {
					put(math.Float64bits(r))
				}
			}
		}
	}
	put(uint64(res.TradeCount))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBacktestMatchesParentDigest pins the in-memory sweep's output to
// the digests the integrated per-day runner it replaced produced, on
// unscreened, screened and costed configurations.
func TestBacktestMatchesParentDigest(t *testing.T) {
	screened := tinyBacktestConfig(t, 4)
	screened.Screen = screen.Config{TopFrac: 0.5}
	costed := tinyBacktestConfig(t, 4)
	costed.Costs = portfolio.CostModel{Commission: 0.005, SpreadCross: 1}
	for _, tc := range []struct {
		name string
		cfg  backtest.Config
		want string
	}{
		{"tiny/workers1", tinyBacktestConfig(t, 1), "1e71eec9bf22dd5e"},
		{"tiny/workers4", tinyBacktestConfig(t, 4), "1e71eec9bf22dd5e"},
		{"tiny/screened", screened, "e94e6d8f78770acc"},
		{"tiny/costed", costed, "c22cc38d0433be99"},
		{"stocks6/days3/levels2", testConfig(t, 6, 3, 2, 42), "a18e775063bcbe36"},
	} {
		res, err := Backtest(context.Background(), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("%s: digest %s (%d trades), want %s", tc.name, got, res.TradeCount, tc.want)
		}
	}
}

// TestFarmMatchesBacktest: the per-pair Approach-2 farm recomputes
// every series the integrated sweep shares, so both must give the same
// Result bit for bit — with screening too, where the farm reads the
// day's kept set from the shared day cache and a pruned pair records an
// empty return set.
func TestFarmMatchesBacktest(t *testing.T) {
	screened := tinyBacktestConfig(t, 4)
	screened.Screen = screen.Config{TopFrac: 0.5}
	for _, tc := range []struct {
		name string
		cfg  backtest.Config
	}{
		{"unscreened", tinyBacktestConfig(t, 4)},
		{"screened", screened},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Backtest(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Farm(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.TradeCount == 0 {
				t.Fatal("no trades to compare")
			}
			sameResult(t, want, got, "farm vs backtest")
		})
	}
}
