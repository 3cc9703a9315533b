package backtest

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"marketminer/internal/clean"
	"marketminer/internal/market"
	"marketminer/internal/taq"
)

// pinnedPrepareDayDigest is the FNV-64a digest of the PriceGrid and
// return bits PrepareDay produced for prepareCases when it still
// cleaned and sampled the whole day's globally time-sorted quote slice.
// Every worker count must reproduce it.
const pinnedPrepareDayDigest = "091c630a83723dbf"

// prepareCase is one day of the pinning corpus.
type prepareCase struct {
	name string
	cfg  Config
	day  int
}

// prepareCases crosses seeds, universe sizes, liquidity tiering,
// contamination and clean configurations. The 12-stock days take the
// full cross product over two seeds; the 61-stock days, each five times
// the work, take a half fraction of it over one.
func prepareCases(t testing.TB) []prepareCase {
	t.Helper()
	var cases []prepareCase
	for _, stocks := range []int{12, 61} {
		u, err := taq.NewUniverse(taq.SyntheticSymbols(stocks))
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int64{3, 11}
		if stocks == 61 {
			seeds = seeds[:1]
		}
		for si, seed := range seeds {
			for combo := 0; combo < 8; combo++ {
				spread := []float64{1, 3}[combo&1]
				contam := []float64{0.004, 0.05}[combo>>1&1]
				ordered := combo>>2&1 == 1
				if stocks == 61 && (combo&1^combo>>1&1^combo>>2&1) != si&1 {
					continue
				}
				mc := market.DefaultConfig()
				mc.Universe, mc.Seed, mc.Days = u, seed, 2
				mc.LiquiditySpread, mc.Contamination = spread, contam
				cases = append(cases, prepareCase{
					name: fmt.Sprintf("n%d/seed%d/spread%g/contam%g/ordered%t", stocks, seed, spread, contam, ordered),
					cfg:  Config{Market: mc, Clean: clean.Config{Ordered: ordered}},
					day:  combo % 2,
				})
			}
		}
	}
	return cases
}

// digestDay folds one day's price rows and return rows into h.
func digestDay(h hash.Hash64, dd *DayData) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(dd.PG.Prices)))
	for i, row := range dd.PG.Prices {
		put(uint64(len(row)))
		for _, p := range row {
			put(math.Float64bits(p))
		}
		put(uint64(len(dd.Returns[i])))
		for _, x := range dd.Returns[i] {
			put(math.Float64bits(x))
		}
	}
}

// TestPrepareDayMatchesParentDigest pins PrepareDay's grids bit for
// bit. With 5 % contamination the clean filter rejects thousands of
// quotes a day, so a rejected quote that reached the sampler would move
// the digest.
func TestPrepareDayMatchesParentDigest(t *testing.T) {
	cases := prepareCases(t)
	for _, workers := range []int{1, 4} {
		h := fnv.New64a()
		for _, c := range cases {
			cfg := c.cfg
			cfg.Workers = workers
			gen, err := market.NewGenerator(cfg.Market)
			if err != nil {
				t.Fatal(err)
			}
			dd, err := PrepareDay(cfg, gen, c.day)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			digestDay(h, dd)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != pinnedPrepareDayDigest {
			t.Errorf("workers %d: digest %s over %d days, want %s", workers, got, len(cases), pinnedPrepareDayDigest)
		}
	}
}

// A stock with no accepted quote fails the day with Backfill's error
// naming the lowest such stock, whichever worker sampled it.
func TestPrepareDayEmptyStockError(t *testing.T) {
	u, err := taq.NewUniverse(taq.SyntheticSymbols(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		error string
	}{
		// Every quote is wider than the spread bound.
		{"all-rejected", Config{
			Market: market.Config{Universe: u, Seed: 5, Days: 1},
			Clean:  clean.Config{MaxRelSpread: 1e-9},
		}, "series: stock 0 has no prices for the whole day"},
		// Under one quote a day per stock: several stocks, the lowest
		// stock 3, draw none at all.
		{"no-quotes", Config{
			Market: market.Config{Universe: u, Seed: 5, Days: 1, QuoteRate: 3e-5, LiquiditySpread: 3},
		}, "series: stock 3 has no prices for the whole day"},
	} {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			gen, err := market.NewGenerator(cfg.Market)
			if err != nil {
				t.Fatal(err)
			}
			_, err = PrepareDay(cfg, gen, 0)
			if err == nil || err.Error() != tc.error {
				t.Errorf("%s, workers %d: error %v, want %q", tc.name, workers, err, tc.error)
			}
		}
	}
}

// PrepareDay holds one stock's quotes per worker, never the day's: the
// bytes it allocates stay far below one copy of the day's quote stream.
func TestPrepareDayAllocatesNoQuoteSlice(t *testing.T) {
	u, err := taq.NewUniverse(taq.SyntheticSymbols(100))
	if err != nil {
		t.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe, mc.Days = u, 1
	gen, err := market.NewGenerator(mc)
	if err != nil {
		t.Fatal(err)
	}
	md, err := gen.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(len(md.Quotes)) * uint64(unsafe.Sizeof(taq.Quote{})) / 4
	md = nil
	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := PrepareDay(Config{Market: mc, Workers: workers}, gen, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Errorf("workers %d: PrepareDay allocated %d bytes, budget %d (a quarter of the day's quotes)", workers, got, budget)
		} else {
			t.Logf("workers %d: %d bytes, budget %d", workers, got, budget)
		}
	}
}
