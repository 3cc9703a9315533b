package marketminer

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see EXPERIMENTS.md for the index):
//
//	Table I    — BenchmarkTableI_ParamGrid
//	Table II   — BenchmarkTableII_QuoteGeneration
//	Table III  — BenchmarkTableIII_CumulativeReturns
//	Table IV   — BenchmarkTableIV_MaxDrawdown
//	Table V    — BenchmarkTableV_WinLoss
//	Figure 1   — BenchmarkFigure1_Pipeline
//	Figure 2   — BenchmarkFigure2_BoxPlots
//	§IV cost   — BenchmarkSectionV_SequentialPairDay (the "2 seconds")
//	§V compare — BenchmarkSectionV_IntegratedSweepDay vs _FarmSweepDay
//	§II engine — BenchmarkCorrelation* (window costs, online matrix,
//	             worker scaling)
//	Ablations  — BenchmarkAblation* (stop-loss / correlation-reversion
//	             exits, the §III extensions)
//	Feed edge  — BenchmarkFeed* (binary wire codec vs the CSV path,
//	             quotes/sec)

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/portfolio"
	"marketminer/internal/strategy"
	"marketminer/internal/sweep"
	"marketminer/internal/taq"
)

// benchSweep runs one shared tiny sweep for the aggregation benches.
var (
	sweepOnce sync.Once
	sweepRes  *BacktestResult
	sweepErr  error
)

func sharedSweep(b *testing.B) *BacktestResult {
	b.Helper()
	sweepOnce.Do(func() {
		cfg := SweepConfig(ScaleTiny, 42)
		cfg.Levels = ParamLevels()[:4]
		sweepRes, sweepErr = RunBacktest(context.Background(), cfg)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRes
}

// benchDay prepares one cleaned trading day for a small universe.
func benchDay(b *testing.B, stocks int) (*backtest.DayData, backtest.Config) {
	b.Helper()
	u, err := taq.NewUniverse(taq.DefaultSymbols()[:stocks])
	if err != nil {
		b.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe = u
	mc.Days = 1
	mc.Seed = 7
	cfg := backtest.Config{Market: mc}
	gen, err := market.NewGenerator(mc)
	if err != nil {
		b.Fatal(err)
	}
	dd, err := backtest.PrepareDay(cfg, gen, 0)
	if err != nil {
		b.Fatal(err)
	}
	return dd, cfg
}

// BenchmarkTableI_ParamGrid measures construction of the 42-set grid.
func BenchmarkTableI_ParamGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if g := ParamGrid(); len(g) != 42 {
			b.Fatal("grid size")
		}
	}
}

// BenchmarkTableII_QuoteGeneration measures synthetic TAQ production —
// the Table II substrate — in quotes/op for an 8-stock day.
func BenchmarkTableII_QuoteGeneration(b *testing.B) {
	u, _ := taq.NewUniverse(taq.DefaultSymbols()[:8])
	mc := market.DefaultConfig()
	mc.Universe = u
	mc.Days = 1
	gen, err := market.NewGenerator(mc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day, err := gen.GenerateDay(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(day.Quotes) == 0 {
			b.Fatal("no quotes")
		}
	}
}

// BenchmarkTableIII_CumulativeReturns regenerates the Table III
// statistics from the shared sweep.
func BenchmarkTableIII_CumulativeReturns(b *testing.B) {
	res := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs := res.CumulativeMonthlyReturns()
		if len(aggs) != 3 {
			b.Fatal("aggregates")
		}
	}
}

// BenchmarkTableIV_MaxDrawdown regenerates the Table IV statistics.
func BenchmarkTableIV_MaxDrawdown(b *testing.B) {
	res := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(res.MaxDailyDrawdowns()) != 3 {
			b.Fatal("aggregates")
		}
	}
}

// BenchmarkTableV_WinLoss regenerates the Table V statistics.
func BenchmarkTableV_WinLoss(b *testing.B) {
	res := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(res.WinLossRatios()) != 3 {
			b.Fatal("aggregates")
		}
	}
}

// BenchmarkFigure2_BoxPlots regenerates all three Figure 2 panels.
func BenchmarkFigure2_BoxPlots(b *testing.B) {
	res := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FormatFigure2(res) == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure1_Pipeline measures the end-to-end streaming DAG over
// one 6-stock day (collector → … → master).
func BenchmarkFigure1_Pipeline(b *testing.B) {
	u, _ := taq.NewUniverse(taq.DefaultSymbols()[:6])
	mc := market.DefaultConfig()
	mc.Universe = u
	mc.Days = 1
	gen, err := market.NewGenerator(mc)
	if err != nil {
		b.Fatal(err)
	}
	day, err := gen.GenerateDay(0)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	cfg := PipelineConfig{Universe: u, Params: []Params{p}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLivePipeline(context.Background(), cfg, day.Quotes, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectionV_SequentialPairDay measures the Approach-2 unit of
// work per correlation treatment — the reproduction's analogue of the
// paper's "approximately 2 seconds" per (pair, day, set).
func BenchmarkSectionV_SequentialPairDay(b *testing.B) {
	dd, _ := benchDay(b, 4)
	for _, ct := range corr.Types() {
		b.Run(ct.String(), func(b *testing.B) {
			p := strategy.DefaultParams().WithType(ct)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := backtest.RunPairDaySequential(p, dd, 0, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSectionV_IntegratedSweepDay measures the Approach-3 runner
// on a 1-day, 6-stock, 2-level workload.
func BenchmarkSectionV_IntegratedSweepDay(b *testing.B) {
	cfg := sweepDayConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Backtest(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectionV_FarmSweepDay measures the Approach-2 farm on the
// identical workload; the ratio to IntegratedSweepDay is the paper's
// Section V speedup.
func BenchmarkSectionV_FarmSweepDay(b *testing.B) {
	cfg := sweepDayConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Farm(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func sweepDayConfig(b *testing.B) backtest.Config {
	b.Helper()
	u, err := taq.NewUniverse(taq.DefaultSymbols()[:6])
	if err != nil {
		b.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe = u
	mc.Days = 1
	mc.Seed = 13
	return backtest.Config{Market: mc, Levels: strategy.BaseGrid()[:2]}
}

// BenchmarkCorrelationWindow measures one M=100 window per estimator —
// the §II claim that the robust measure is "computationally expensive".
func BenchmarkCorrelationWindow(b *testing.B) {
	dd, _ := benchDay(b, 4)
	x := dd.Returns[0][:100]
	y := dd.Returns[1][:100]
	mc := corr.DefaultMaronnaConfig()
	for _, est := range []struct {
		ct   corr.Type
		corr func(x, y []float64) float64
	}{
		{corr.Pearson, corr.PearsonCorr},
		{corr.Maronna, corr.NewMaronnaEstimator(mc).Corr},
		{corr.Combined, corr.NewCombinedEstimator(mc).Corr},
	} {
		b.Run(est.ct.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := est.corr(x, y)
				if c < -1 || c > 1 {
					b.Fatal("out of range")
				}
			}
		})
	}
}

// BenchmarkCorrelationWindowWarm measures the engine's steady-state
// per-window cost: a warm-started sliding Maronna fit seeded from the
// previous window's fixed point, and the fused variant that serves
// both robust treatments from that single fit. Compare against the
// cold-start BenchmarkCorrelationWindow numbers — the gap is the
// tentpole speedup of the warm-start/fusion overhaul.
func BenchmarkCorrelationWindowWarm(b *testing.B) {
	dd, _ := benchDay(b, 4)
	x, y := dd.Returns[0], dd.Returns[1]
	const m = 100
	steps := len(x) - m
	if steps <= 0 {
		b.Fatal("day too short")
	}
	est := corr.NewMaronnaEstimator(corr.DefaultMaronnaConfig())
	b.Run("Maronna", func(b *testing.B) {
		var sc *corr.Scratch
		warm, sc := est.FitScratch(x[:m], y[:m], sc, nil)
		t := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			warm, sc = est.FitScratch(x[t:t+m], y[t:t+m], sc, &warm)
		}
	})
	b.Run("MaronnaCombinedFused", func(b *testing.B) {
		var sc *corr.Scratch
		warm, sc := est.FitScratch(x[:m], y[:m], sc, nil)
		t := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			warm, sc = est.FitScratch(x[t:t+m], y[t:t+m], sc, &warm)
			c := corr.CombinedFromFit(x[t:t+m], y[t:t+m], warm.Rho, sc.Weights())
			if c < -1 || c > 1 {
				b.Fatal("out of range")
			}
		}
	})
}

// BenchmarkCorrelationSeriesFused compares computing the Maronna and
// Combined day series separately against the fused ComputeSeriesMulti
// pass that shares one robust fit per window between them.
func BenchmarkCorrelationSeriesFused(b *testing.B) {
	dd, _ := benchDay(b, 8)
	short := make([][]float64, len(dd.Returns))
	for i := range short {
		short[i] = dd.Returns[i][:300]
	}
	cfg := corr.EngineConfig{M: 100, Workers: 2}
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, ct := range []corr.Type{corr.Maronna, corr.Combined} {
				c := cfg
				c.Type = ct
				if _, err := corr.ComputeSeries(c, short); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corr.ComputeSeriesMulti(cfg, []corr.Type{corr.Maronna, corr.Combined}, short); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorrelationMatrixOnline measures one streaming matrix
// update for a 20-stock universe (190 pairs).
func BenchmarkCorrelationMatrixOnline(b *testing.B) {
	dd, _ := benchDay(b, 20)
	for _, ct := range []corr.Type{corr.Pearson, corr.Maronna} {
		b.Run(ct.String(), func(b *testing.B) {
			eng, err := corr.NewOnlineEngine(corr.EngineConfig{Type: ct, M: 100}, 20)
			if err != nil {
				b.Fatal(err)
			}
			vec := make([]float64, 20)
			// Warm up the window.
			for u := 0; u < 100; u++ {
				for i := 0; i < 20; i++ {
					vec[i] = dd.Returns[i][u]
				}
				if _, err := eng.Push(vec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := 100 + i%500
				for j := 0; j < 20; j++ {
					vec[j] = dd.Returns[j][u]
				}
				if _, err := eng.Push(vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorrelationWorkerScaling sweeps the worker count for a full
// day of Maronna series over 15 stocks (105 pairs) — the axis the MPI
// implementation scaled along ranks. On a single-core host the curve
// is flat; on a multi-core host it should be near-linear.
func BenchmarkCorrelationWorkerScaling(b *testing.B) {
	dd, _ := benchDay(b, 15)
	short := make([][]float64, len(dd.Returns))
	for i := range short {
		short[i] = dd.Returns[i][:250]
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := corr.ComputeSeries(corr.EngineConfig{Type: corr.Maronna, M: 100, Workers: workers}, short); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n))
}

// BenchmarkCleaningFilter measures the TCP-like filter in quotes/op.
func BenchmarkCleaningFilter(b *testing.B) {
	u, _ := taq.NewUniverse(taq.DefaultSymbols()[:8])
	mc := market.DefaultConfig()
	mc.Universe = u
	mc.Days = 1
	mc.Contamination = 0.01
	gen, err := market.NewGenerator(mc)
	if err != nil {
		b.Fatal(err)
	}
	day, err := gen.GenerateDay(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := clean.NewFilter(clean.Config{})
		for _, q := range day.Quotes {
			f.Accept(q)
		}
	}
	b.ReportMetric(float64(len(day.Quotes)), "quotes/op")
}

// BenchmarkAblationExits compares the baseline §III exit set with the
// stop-loss and correlation-reversion extensions the paper describes
// but does not evaluate.
func BenchmarkAblationExits(b *testing.B) {
	dd, _ := benchDay(b, 4)
	base := strategy.DefaultParams()
	variants := []struct {
		name string
		mut  func(*strategy.Params)
	}{
		{"baseline", func(p *strategy.Params) {}},
		{"stop-loss", func(p *strategy.Params) { p.StopLoss = 0.002 }},
		{"corr-reversion", func(p *strategy.Params) { p.CorrReversion = true }},
	}
	for _, v := range variants {
		p := base
		v.mut(&p)
		b.Run(v.name, func(b *testing.B) {
			var trades int
			for i := 0; i < b.N; i++ {
				ts, err := backtest.RunPairDaySequential(p, dd, 0, 1, 0)
				if err != nil {
					b.Fatal(err)
				}
				trades += len(ts)
			}
			b.ReportMetric(float64(trades)/float64(b.N), "trades/op")
		})
	}
}

// BenchmarkAblationCosts measures the cost-model ablation: the same
// sweep day frictionless vs with realistic frictions (the paper's
// future-work "implementation shortfalls"). The reported mean-ret
// metric shows the edge shrinking as costs turn on.
func BenchmarkAblationCosts(b *testing.B) {
	variants := []struct {
		name  string
		costs portfolio.CostModel
	}{
		{"frictionless", portfolio.CostModel{}},
		{"commission+spread", portfolio.CostModel{Commission: 0.005, SpreadCross: 1}},
		{"with-impact", portfolio.CostModel{Commission: 0.005, SpreadCross: 1, ImpactCoeff: 1e-7}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := sweepDayConfig(b)
			cfg.Costs = v.costs
			var sum float64
			var n int
			for i := 0; i < b.N; i++ {
				res, err := sweep.Backtest(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				for p := range res.Series {
					for k := range res.Series[p] {
						for _, r := range res.Series[p][k].Flat() {
							sum += r
							n++
						}
					}
				}
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n)*1e4, "mean-ret-bps")
			}
		})
	}
}

// --- Feed wire format: binary codec vs the CSV path -------------------
//
// The paper's live system moves ~50 GB of quotes per day from the
// collector to the compute cluster; the binary feed codec exists to
// make that edge cheap. These benches compare quotes/sec through the
// codec against the CSV reader/writer on identical data.

// benchFeedQuotes builds one deterministic batch of n quotes.
func benchFeedQuotes(b *testing.B, n int) ([]taq.Quote, *taq.Universe) {
	b.Helper()
	u, err := taq.NewUniverse(taq.DefaultSymbols()[:8])
	if err != nil {
		b.Fatal(err)
	}
	quotes := make([]taq.Quote, n)
	for i := range quotes {
		quotes[i] = taq.Quote{
			Day:     0,
			SeqTime: float64(i) * 0.01,
			Symbol:  u.Symbol(i % u.Len()),
			Bid:     100 + float64(i%500)*0.01,
			Ask:     100.02 + float64(i%500)*0.01,
			BidSize: 1 + i%40,
			AskSize: 1 + (i*3)%40,
		}
	}
	return quotes, u
}

func reportQuotesPerSec(b *testing.B, n int) {
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "quotes/sec")
}

func BenchmarkFeedCodecEncode(b *testing.B) {
	quotes, u := benchFeedQuotes(b, 4096)
	var buf bytes.Buffer
	enc := feed.NewEncoder(&buf, u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.WriteBatch(&feed.Batch{Seq: uint64(i) + 1, Quotes: quotes}); err != nil {
			b.Fatal(err)
		}
	}
	reportQuotesPerSec(b, len(quotes))
}

func BenchmarkFeedCodecDecode(b *testing.B) {
	quotes, u := benchFeedQuotes(b, 4096)
	var buf bytes.Buffer
	enc := feed.NewEncoder(&buf, u)
	if err := enc.WriteHello(&feed.Hello{Version: feed.ProtocolVersion, Symbols: u.Symbols()}); err != nil {
		b.Fatal(err)
	}
	if err := enc.WriteBatch(&feed.Batch{Seq: 1, Quotes: quotes}); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := feed.NewDecoder(bytes.NewReader(stream))
		if _, err := dec.Read(); err != nil { // hello
			b.Fatal(err)
		}
		f, err := dec.Read()
		if err != nil {
			b.Fatal(err)
		}
		if len(f.(*feed.Batch).Quotes) != len(quotes) {
			b.Fatal("short batch")
		}
	}
	reportQuotesPerSec(b, len(quotes))
}

func BenchmarkFeedCSVWrite(b *testing.B) {
	quotes, _ := benchFeedQuotes(b, 4096)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := taq.NewWriter(&buf)
		for _, q := range quotes {
			if err := w.Write(q); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reportQuotesPerSec(b, len(quotes))
}

func BenchmarkFeedCSVRead(b *testing.B) {
	quotes, _ := benchFeedQuotes(b, 4096)
	var buf bytes.Buffer
	w := taq.NewWriter(&buf)
	for _, q := range quotes {
		if err := w.Write(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := taq.NewReader(bytes.NewReader(data), true)
		n := 0
		for {
			_, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(quotes) {
			b.Fatal("short read")
		}
	}
	reportQuotesPerSec(b, len(quotes))
}
