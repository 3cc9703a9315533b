package strategy_test

import (
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// BenchmarkDayGrid compares the sweep's two ways to backtest the 14
// BaseGrid levels of one pair of a 400-stock day: one DayGrid per
// correlation window M (each level reads its M's series) against 14
// separate RunDay calls.
func BenchmarkDayGrid(b *testing.B) {
	const stocks = 400
	uni, err := taq.NewUniverse(taq.SyntheticSymbols(stocks))
	if err != nil {
		b.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe, mc.Days, mc.Seed = uni, 1, 7
	gen, err := market.NewGenerator(mc)
	if err != nil {
		b.Fatal(err)
	}
	dd, err := backtest.PrepareDay(backtest.Config{Market: mc}, gen, 0)
	if err != nil {
		b.Fatal(err)
	}
	levels := strategy.BaseGrid()
	var ms []int
	byM := map[int][]strategy.Params{}
	for _, p := range levels {
		if byM[p.M] == nil {
			ms = append(ms, p.M)
		}
		byM[p.M] = append(byM[p.M], p)
	}
	// The first pair the base level trades on.
	pairs := taq.AllPairs(stocks)
	series := map[int]*corr.Series{}
	pid := -1
	for id := 0; id < 64 && pid < 0; id++ {
		for _, m := range ms {
			cs, err := corr.ComputeSeries(corr.EngineConfig{Type: corr.Pearson, M: m, Workers: 1, Pairs: []int{id}}, dd.Returns)
			if err != nil {
				b.Fatal(err)
			}
			series[m] = cs
		}
		cs := series[levels[0].M]
		if tr, _ := strategy.RunDay(levels[0], cs.Corr[0], cs.FirstS, dd.PG, pairs[id].I, pairs[id].J, 0); len(tr) > 0 {
			pid = id
		}
	}
	if pid < 0 {
		b.Fatal("no trading pair among the first 64")
	}
	pr := pairs[pid]

	b.Run("grid", func(b *testing.B) {
		grids := map[int]*strategy.DayGrid{}
		for _, m := range ms {
			if grids[m], err = strategy.NewDayGrid(byM[m]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range ms {
				cs := series[m]
				if err := grids[m].Run(cs.Corr[0], cs.FirstS, dd.PG, pr.I, pr.J, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("run_day", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range levels {
				cs := series[p.M]
				if _, err := strategy.RunDay(p, cs.Corr[0], cs.FirstS, dd.PG, pr.I, pr.J, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
