package backtest_test

// These tests exercise the Result API — shape, aggregates, JSON, costs
// — on sweeps run by internal/sweep's drivers. They live in the
// external test package because internal/sweep imports backtest.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/portfolio"
	"marketminer/internal/sweep"
)

func TestRunIntegratedSweep(t *testing.T) {
	cfg := backtest.TinyConfig(t)
	res, err := sweep.Backtest(context.Background(), cfg)
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

func TestRunContextCancellation(t *testing.T) {
	cfg := backtest.TinyConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweep.Backtest(ctx, cfg); err == nil {
		t.Error("cancelled context should abort the sweep")
	}
}

func TestAggregates(t *testing.T) {
	cfg := backtest.TinyConfig(t)
	res, err := sweep.Backtest(context.Background(), cfg)
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

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	cfg := backtest.TinyConfig(t)
	res, err := sweep.Backtest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := backtest.SaveJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := backtest.LoadJSON(&buf)
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

func TestCostsReduceReturns(t *testing.T) {
	cfg := backtest.TinyConfig(t)
	free, err := sweep.Backtest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	costly := cfg
	costly.Costs = portfolio.CostModel{Commission: 0.005, SpreadCross: 1}
	paid, err := sweep.Backtest(context.Background(), costly)
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
