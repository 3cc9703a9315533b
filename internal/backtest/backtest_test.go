package backtest

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/portfolio"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// tinyConfig: 4 stocks, 2 days, 2 levels × 2 types — small enough for
// unit tests, large enough to exercise every code path.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	u, err := taq.NewUniverse([]string{"A1", "A2", "B1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	lvl := strategy.DefaultParams()
	lvl.M = 30
	lvl.W = 20
	lvl.RT = 20
	lvl.D = 0.005
	lvl2 := lvl
	lvl2.HP = 40
	return Config{
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
		Workers: 4,
	}
}

func TestRunIntegratedSweep(t *testing.T) {
	cfg := tinyConfig(t)
	var progressCalls int
	cfg.Progress = func(day, total, trades int) { progressCalls++ }
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPairs() != 6 {
		t.Errorf("pairs = %d, want 6", res.NumPairs())
	}
	if res.NumParams() != 4 {
		t.Errorf("params = %d, want 4", res.NumParams())
	}
	if res.Days != 2 {
		t.Errorf("days = %d", res.Days)
	}
	if res.TradeCount == 0 {
		t.Fatal("sweep produced no trades — breakdown events should trigger the strategy")
	}
	if progressCalls != 2 {
		t.Errorf("progress called %d times, want 2", progressCalls)
	}
	// Every trade return must be finite and sane.
	for p := range res.Series {
		for k := range res.Series[p] {
			for _, day := range res.Series[p][k].Daily {
				for _, r := range day {
					if math.IsNaN(r) || math.Abs(r) > 0.5 {
						t.Fatalf("implausible trade return %v", r)
					}
				}
			}
		}
	}
}

func TestParamIndexRoundTrip(t *testing.T) {
	cfg := tinyConfig(t)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti, ct := range res.Types {
		for li := range res.Levels {
			idx := res.ParamIndex(ti, li)
			p := res.Param(idx)
			if p.Ctype != ct {
				t.Errorf("Param(%d).Ctype = %v, want %v", idx, p.Ctype, ct)
			}
			if p.HP != res.Levels[li].HP {
				t.Errorf("Param(%d).HP = %d, want %d", idx, p.HP, res.Levels[li].HP)
			}
		}
	}
}

func TestFarmMatchesIntegratedTradeShape(t *testing.T) {
	cfg := tinyConfig(t)
	integrated, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	farmed, err := Farm(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both runners use the same engine computation (the farm just
	// repeats it per pair), so results must be bit-identical.
	if integrated.TradeCount == 0 {
		t.Fatal("no trades to compare")
	}
	if integrated.TradeCount != farmed.TradeCount {
		t.Fatalf("trade counts diverge: integrated=%d farm=%d",
			integrated.TradeCount, farmed.TradeCount)
	}
	for p := range integrated.Series {
		for k := range integrated.Series[p] {
			a := integrated.Series[p][k].Flat()
			b := farmed.Series[p][k].Flat()
			if len(a) != len(b) {
				t.Fatalf("pair %d param %d: %d vs %d trades", p, k, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("pair %d param %d trade %d: %v vs %v", p, k, i, a[i], b[i])
				}
			}
		}
	}
}

func TestRunPairDaySequential(t *testing.T) {
	cfg := tinyConfig(t)
	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := PrepareDay(cfg, gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Levels[0].WithType(corr.Pearson)
	trades, err := RunPairDaySequential(p, dd, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trades {
		if tr.PairI != 0 || tr.PairJ != 1 || tr.Day != 0 {
			t.Errorf("trade metadata wrong: %+v", tr)
		}
	}
	// Errors: bad params and short data.
	bad := p
	bad.M = 0
	if _, err := RunPairDaySequential(bad, dd, 0, 1, 0); err == nil {
		t.Error("invalid params should error")
	}
	bad = p
	bad.M = len(dd.Returns[0]) + 1
	if _, err := RunPairDaySequential(bad, dd, 0, 1, 0); err == nil {
		t.Error("oversized window should error")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := tinyConfig(t)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mixed := cfg
	l2 := cfg.Levels[1]
	l2.DeltaS = 60
	mixed.Levels = []strategy.Params{cfg.Levels[0], l2}
	if err := mixed.Validate(); err == nil {
		t.Error("mixed ∆s should fail validation")
	}
	badLvl := cfg
	l3 := cfg.Levels[0]
	l3.L = 5
	badLvl.Levels = []strategy.Params{l3}
	if err := badLvl.Validate(); err == nil {
		t.Error("invalid level should fail validation")
	}
	empty := cfg
	empty.Levels = []strategy.Params{}
	if err := empty.Validate(); err == nil {
		t.Error("empty levels should fail validation")
	}
	noTypes := cfg
	noTypes.Types = []corr.Type{}
	if err := noTypes.Validate(); err == nil {
		t.Error("empty types should fail validation")
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := tinyConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); err == nil {
		t.Error("cancelled context should abort the sweep")
	}
}

func TestAggregates(t *testing.T) {
	cfg := tinyConfig(t)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rets := res.CumulativeMonthlyReturns()
	if len(rets) != len(cfg.Types) {
		t.Fatalf("aggregates = %d, want %d", len(rets), len(cfg.Types))
	}
	for _, a := range rets {
		if len(a.PerPair) != res.NumPairs() {
			t.Errorf("%v: PerPair = %d", a.Type, len(a.PerPair))
		}
		// Gross returns should be near 1 (intra-day strategy over 2 days).
		if a.Stats.N > 0 && (a.Stats.Mean < 0.5 || a.Stats.Mean > 2) {
			t.Errorf("%v: mean gross return = %v, implausible", a.Type, a.Stats.Mean)
		}
	}
	mdd := res.MaxDailyDrawdowns()
	for _, a := range mdd {
		for _, v := range a.PerPair {
			if v < 0 {
				t.Errorf("%v: negative drawdown %v", a.Type, v)
			}
		}
	}
	wl := res.WinLossRatios()
	for _, a := range wl {
		for _, v := range a.PerPair {
			if !math.IsNaN(v) && v < 0 {
				t.Errorf("%v: negative win-loss ratio %v", a.Type, v)
			}
		}
		// Box plot quartiles must be ordered when defined.
		if a.Stats.N > 0 && (a.Box.Q1 > a.Box.Median || a.Box.Median > a.Box.Q3) {
			t.Errorf("%v: box plot disordered: %+v", a.Type, a.Box)
		}
	}
}

func TestAggregateDropsNonFinite(t *testing.T) {
	a := Aggregate{PerPair: []float64{1, 2, math.NaN(), math.Inf(1), 3}}
	a.finalize()
	if a.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", a.Dropped)
	}
	if a.Stats.N != 3 {
		t.Errorf("Stats.N = %d, want 3", a.Stats.N)
	}
	if a.Stats.Mean != 2 {
		t.Errorf("Stats.Mean = %v, want 2", a.Stats.Mean)
	}
}

func TestRunWithDefaults(t *testing.T) {
	// A zero-ish config gets defaults (61 stocks would be slow, so
	// only exercise validation and the default-filling path).
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config should validate: %v", err)
	}
	if len(cfg.levels()) != 14 {
		t.Errorf("default levels = %d, want 14", len(cfg.levels()))
	}
	if len(cfg.types()) != 3 {
		t.Errorf("default types = %d, want 3", len(cfg.types()))
	}
}

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	cfg := tinyConfig(t)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TradeCount != res.TradeCount || back.Days != res.Days {
		t.Errorf("metadata mismatch: %+v vs %+v", back.TradeCount, res.TradeCount)
	}
	if back.Universe.Len() != res.Universe.Len() {
		t.Error("universe mismatch")
	}
	if len(back.Types) != len(res.Types) || back.Types[0] != res.Types[0] {
		t.Error("types mismatch")
	}
	for p := range res.Series {
		for k := range res.Series[p] {
			a := res.Series[p][k].Flat()
			b := back.Series[p][k].Flat()
			if len(a) != len(b) {
				t.Fatalf("pair %d param %d trade counts differ", p, k)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("pair %d param %d trade %d differs", p, k, i)
				}
			}
		}
	}
	// Aggregates from the reloaded result must match.
	wantAgg := res.CumulativeMonthlyReturns()
	gotAgg := back.CumulativeMonthlyReturns()
	for i := range wantAgg {
		if wantAgg[i].Stats.Mean != gotAgg[i].Stats.Mean {
			t.Errorf("aggregate %d mean differs", i)
		}
	}
}

func TestLoadJSONErrors(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := LoadJSON(strings.NewReader(`{"symbols":["A","B","C"],"levels":[],"types":["Pearson"],"series":[[]]}`)); err == nil {
		t.Error("inconsistent pair count should error")
	}
	if _, err := LoadJSON(strings.NewReader(`{"symbols":["A","B"],"levels":[],"types":["bogus"],"series":[]}`)); err == nil {
		t.Error("unknown type should error")
	}
}

func TestCostsReduceReturns(t *testing.T) {
	cfg := tinyConfig(t)
	free, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	costly := cfg
	costly.Costs = portfolio.CostModel{Commission: 0.005, SpreadCross: 1}
	paid, err := Run(context.Background(), costly)
	if err != nil {
		t.Fatal(err)
	}
	if paid.TradeCount != free.TradeCount {
		t.Fatalf("costs must not change trade decisions: %d vs %d", paid.TradeCount, free.TradeCount)
	}
	var freeSum, paidSum float64
	var n int
	for p := range free.Series {
		for k := range free.Series[p] {
			a := free.Series[p][k].Flat()
			b := paid.Series[p][k].Flat()
			for i := range a {
				freeSum += a[i]
				paidSum += b[i]
				if b[i] > a[i]+1e-12 {
					t.Fatalf("net return above gross: %v > %v", b[i], a[i])
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no trades")
	}
	if paidSum >= freeSum {
		t.Errorf("total net %v should be below gross %v", paidSum, freeSum)
	}
}

func TestConfigValidatesCosts(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Costs = portfolio.CostModel{Commission: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative costs should fail validation")
	}
}
