package backtest

import (
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

func TestParamIndexRoundTrip(t *testing.T) {
	cfg := tinyConfig(t)
	res := NewResult(cfg.Market.Universe, cfg.Levels, cfg.Types, cfg.Market.Days)
	if res.NumPairs() != 6 || res.NumParams() != 4 || len(res.Series[5][3].Daily) != 2 {
		t.Fatalf("NewResult shape: %d pairs × %d params × %d days, want 6 × 4 × 2",
			res.NumPairs(), res.NumParams(), len(res.Series[5][3].Daily))
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
	if len(cfg.ResolvedLevels()) != 14 {
		t.Errorf("default levels = %d, want 14", len(cfg.ResolvedLevels()))
	}
	if len(cfg.ResolvedTypes()) != 3 {
		t.Errorf("default types = %d, want 3", len(cfg.ResolvedTypes()))
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

func TestConfigValidatesCosts(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Costs = portfolio.CostModel{Commission: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative costs should fail validation")
	}
}
