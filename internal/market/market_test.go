package market

import (
	"math"
	"testing"

	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/series"
	"marketminer/internal/taq"
)

// smallConfig keeps unit tests fast: 6 stocks, 1 day, sparse quotes.
func smallConfig() Config {
	u, _ := taq.NewUniverse([]string{"A1", "A2", "A3", "B1", "B2", "B3"})
	return Config{
		Universe:   u,
		Seed:       42,
		Days:       2,
		QuoteRate:  0.05,
		NumSectors: 2,
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewGenerator(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Contamination = 1.5
	if _, err := NewGenerator(bad); err == nil {
		t.Error("contamination > 1 should error")
	}
	one, _ := taq.NewUniverse([]string{"X"})
	bad = cfg
	bad.Universe = one
	if _, err := NewGenerator(bad); err == nil {
		t.Error("1-stock universe should error")
	}
}

func TestGenerateDayDeterministic(t *testing.T) {
	g1, _ := NewGenerator(smallConfig())
	g2, _ := NewGenerator(smallConfig())
	d1, err := g1.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g2.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Quotes) != len(d2.Quotes) {
		t.Fatalf("quote counts differ: %d vs %d", len(d1.Quotes), len(d2.Quotes))
	}
	for i := range d1.Quotes {
		if d1.Quotes[i] != d2.Quotes[i] {
			t.Fatalf("quote %d differs", i)
		}
	}
}

func TestGenerateDayBounds(t *testing.T) {
	g, _ := NewGenerator(smallConfig())
	if _, err := g.GenerateDay(-1); err == nil {
		t.Error("negative day should error")
	}
	if _, err := g.GenerateDay(99); err == nil {
		t.Error("day beyond dataset should error")
	}
}

func TestQuotesSortedAndInSession(t *testing.T) {
	g, _ := NewGenerator(smallConfig())
	day, err := g.GenerateDay(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(day.Quotes) == 0 {
		t.Fatal("no quotes generated")
	}
	prev := -1.0
	for _, q := range day.Quotes {
		if q.SeqTime < prev {
			t.Fatal("quotes not sorted by time")
		}
		prev = q.SeqTime
		if q.SeqTime < 0 || q.SeqTime >= taq.TradingDaySec {
			t.Fatalf("quote outside session: %v", q.SeqTime)
		}
		if q.Day != 1 {
			t.Fatalf("quote has day %d, want 1", q.Day)
		}
		if _, ok := g.Config().Universe.Index(q.Symbol); !ok {
			t.Fatalf("unknown symbol %q", q.Symbol)
		}
	}
}

func TestCleanQuotesMostlyValid(t *testing.T) {
	cfg := smallConfig()
	cfg.Contamination = 0
	g, _ := NewGenerator(cfg)
	day, err := g.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	var invalid int
	for _, q := range day.Quotes {
		if !q.Valid() {
			invalid++
		}
	}
	if invalid > 0 {
		t.Errorf("%d structurally invalid quotes in uncontaminated stream", invalid)
	}
	if day.NumBad != 0 {
		t.Errorf("NumBad = %d without contamination", day.NumBad)
	}
}

func TestContaminationProducesBadTicks(t *testing.T) {
	cfg := smallConfig()
	cfg.Contamination = 0.05
	cfg.QuoteRate = 0.2
	g, _ := NewGenerator(cfg)
	day, err := g.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	if day.NumBad == 0 {
		t.Fatal("contaminated stream reported no bad ticks")
	}
	frac := float64(day.NumBad) / float64(len(day.Quotes))
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("bad-tick fraction = %v, want ≈ 0.05", frac)
	}
	// The cleaning filter should catch a large share of them.
	cleaned, flt := clean.Clean(clean.Config{}, day.Quotes)
	caught := flt.TotalRejected()
	if caught < day.NumBad/3 {
		t.Errorf("filter caught %d of %d bad ticks", caught, day.NumBad)
	}
	if len(cleaned)+caught != len(day.Quotes) {
		t.Error("cleaned + rejected != total")
	}
}

func TestSectorAssignment(t *testing.T) {
	g, _ := NewGenerator(smallConfig())
	if g.sector[0] != g.sector[2] {
		t.Error("stocks 0 and 2 should share sector (i %% 2)")
	}
	if g.sector[0] == g.sector[1] {
		t.Error("stocks 0 and 1 should differ in sector")
	}
	if g.sector[3] != 1 {
		t.Errorf("sector of stock 3 = %d", g.sector[3])
	}
}

// TestFactorStructure verifies the core statistical property: sector
// mates are substantially more correlated than cross-sector pairs, so
// the pair-trading strategy has real structure to find.
func TestFactorStructure(t *testing.T) {
	cfg := smallConfig()
	cfg.QuoteRate = 0.3
	cfg.Contamination = 0
	cfg.BreakdownsPerDay = 0
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day, err := g.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := series.NewGrid(30)
	if err != nil {
		t.Fatal(err)
	}
	sm := series.NewSampler(grid, cfg.Universe)
	for _, q := range day.Quotes {
		sm.Add(q)
	}
	pg := sm.Finish()
	if fc := pg.FirstComplete(); fc != 0 {
		t.Fatalf("FirstComplete = %d", fc)
	}
	rets := series.ReturnGrid(pg)
	same := corr.PearsonCorr(rets[0], rets[2]) // sector mates
	diff := corr.PearsonCorr(rets[0], rets[1]) // cross-sector
	if same < 0.4 {
		t.Errorf("sector-mate correlation = %v, want > 0.4", same)
	}
	if same-diff < 0.2 {
		t.Errorf("sector structure too weak: same=%v diff=%v", same, diff)
	}
}

// TestBreakdownCreatesDivergence checks that a breakdown visibly
// dislocates the latent mid and then retraces.
func TestBreakdownCreatesDivergence(t *testing.T) {
	cfg := smallConfig()
	cfg.BreakdownsPerDay = 3
	cfg.BreakdownMag = 0.01
	g, _ := NewGenerator(cfg)
	day, err := g.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	// Find the largest 5-minute absolute move in any latent mid; with
	// 1% dislocations it must exceed what diffusion alone produces.
	var maxMove float64
	for i := range day.Mid {
		row := day.Mid[i]
		for s := 300; s < len(row); s += 60 {
			mv := math.Abs(float64(row[s])/float64(row[s-300]) - 1)
			if mv > maxMove {
				maxMove = mv
			}
		}
	}
	if maxMove < 0.005 {
		t.Errorf("max 5-min move = %v, breakdowns not visible", maxMove)
	}
}

func TestBreakdownOffsetShape(t *testing.T) {
	b := breakdown{stock: 0, start: 100, duration: 100, mag: 0.01}
	if b.offset(99) != 0 {
		t.Error("offset before start should be 0")
	}
	if got := b.offset(105); got <= 0 || got > 0.01 {
		t.Errorf("ramp offset = %v", got)
	}
	if got := b.offset(150); got != 0.01 {
		t.Errorf("hold offset = %v, want mag", got)
	}
	after := b.offset(260)
	if after >= 0.01 || after <= 0 {
		t.Errorf("decay offset = %v, want in (0, mag)", after)
	}
	if b.offset(2000) > 1e-6 {
		t.Error("offset should decay to ~0")
	}
}

func TestDataset(t *testing.T) {
	cfg := smallConfig()
	g, _ := NewGenerator(cfg)
	days := make([]*Day, cfg.Days)
	for d := range days {
		day, err := g.GenerateDay(d)
		if err != nil {
			t.Fatal(err)
		}
		days[d] = day
	}
	if len(days) != 2 {
		t.Fatalf("dataset has %d days", len(days))
	}
	if days[0].Index != 0 || days[1].Index != 1 {
		t.Error("day indices wrong")
	}
	// Different days must differ.
	if len(days[0].Quotes) == len(days[1].Quotes) {
		same := true
		for i := range days[0].Quotes {
			if days[0].Quotes[i].SeqTime != days[1].Quotes[i].SeqTime {
				same = false
				break
			}
		}
		if same {
			t.Error("two days generated identical quote streams")
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := newTestRand(7)
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 3)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("poisson mean = %v, want 3", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("λ ≤ 0 should give 0")
	}
}

func TestDefaultConfigMatchesPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Universe.Len() != 61 {
		t.Errorf("universe = %d, want 61", cfg.Universe.Len())
	}
	if cfg.Days != 20 {
		t.Errorf("days = %d, want 20", cfg.Days)
	}
}

func TestLiquidityTiers(t *testing.T) {
	cfg := smallConfig()
	cfg.LiquiditySpread = 4
	cfg.QuoteRate = 0.2
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), 0
	for i := 0; i < cfg.Universe.Len(); i++ {
		r := g.rate[i]
		if r < cfg.QuoteRate/4-1e-9 || r > cfg.QuoteRate*4+1e-9 {
			t.Errorf("stock %d rate %v outside tier bounds", i, r)
		}
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo < 1.5 {
		t.Errorf("liquidity tiers too uniform: lo=%v hi=%v", lo, hi)
	}
	// Quote counts should reflect the tiers.
	day, err := g.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, q := range day.Quotes {
		counts[q.Symbol]++
	}
	var iMax, iMin int
	for i := 1; i < cfg.Universe.Len(); i++ {
		if g.rate[i] > g.rate[iMax] {
			iMax = i
		}
		if g.rate[i] < g.rate[iMin] {
			iMin = i
		}
	}
	if counts[cfg.Universe.Symbol(iMax)] <= counts[cfg.Universe.Symbol(iMin)] {
		t.Errorf("liquid stock quoted less than illiquid one: %d vs %d",
			counts[cfg.Universe.Symbol(iMax)], counts[cfg.Universe.Symbol(iMin)])
	}
}

func TestLiquiditySpreadClamp(t *testing.T) {
	cfg := smallConfig()
	cfg.LiquiditySpread = 0.2 // clamps to 1 → uniform rates
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Universe.Len(); i++ {
		if math.Abs(g.rate[i]-g.Config().QuoteRate) > 1e-12 {
			t.Errorf("clamped spread should give uniform rates, got %v", g.rate[i])
		}
	}
}
