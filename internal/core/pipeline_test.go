package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/risk"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

func pipelineParams() strategy.Params {
	p := strategy.DefaultParams()
	p.M = 30
	p.W = 20
	p.RT = 20
	p.D = 0.005
	return p
}

func testUniverse(t testing.TB) *taq.Universe {
	t.Helper()
	u, err := taq.NewUniverse([]string{"A1", "A2", "B1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func genQuotes(t testing.TB, u *taq.Universe) []taq.Quote {
	t.Helper()
	day, err := testGenerator(t, u).GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	return day.Quotes
}

// testGenerator is the generator behind genQuotes' day 0.
func testGenerator(t testing.TB, u *taq.Universe) *market.Generator {
	t.Helper()
	gen, err := market.NewGenerator(market.Config{
		Universe:         u,
		Seed:             11,
		Days:             1,
		QuoteRate:        0.25,
		NumSectors:       2,
		BreakdownsPerDay: 8,
		BreakdownMag:     0.006,
		Contamination:    0.003,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestPipelineEndToEnd(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	cfg := PipelineConfig{
		Universe: u,
		Params:   []strategy.Params{pipelineParams()},
		Workers:  2,
	}
	res, err := RunPipeline(context.Background(), cfg, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.QuotesIn != len(quotes) {
		t.Errorf("QuotesIn = %d, want %d", res.QuotesIn, len(quotes))
	}
	if res.QuotesClean == 0 || res.QuotesClean > res.QuotesIn {
		t.Errorf("QuotesClean = %d of %d", res.QuotesClean, res.QuotesIn)
	}
	// 780 intervals, M=30 → up to 750 matrices (fewer if warmup later).
	if res.Matrices < 700 || res.Matrices > 751 {
		t.Errorf("Matrices = %d, want ≈750", res.Matrices)
	}
	if len(res.Trades) != 1 {
		t.Fatalf("Trades groups = %d", len(res.Trades))
	}
	if len(res.Trades[0]) == 0 {
		t.Error("pipeline produced no trades despite breakdown events")
	}
	for _, tr := range res.Trades[0] {
		if math.IsNaN(tr.Return) || math.Abs(tr.Return) > 0.5 {
			t.Errorf("implausible trade return %v", tr.Return)
		}
		if tr.ExitS <= tr.EntryS {
			t.Errorf("trade exits before entry: %+v", tr)
		}
	}
	// Every completed trade produced 4 orders (2 entry + 2 exit); an
	// unclosed position adds 2 more.
	minOrders := 4 * len(res.Trades[0])
	if res.Orders < minOrders {
		t.Errorf("Orders = %d, want ≥ %d", res.Orders, minOrders)
	}
	if res.BookFlat && math.IsNaN(res.CashPnL) {
		t.Error("CashPnL undefined")
	}
	// Node statistics should show flow through every stage.
	byName := map[string]int64{}
	for _, s := range res.NodeStats {
		byName[s.Name] = s.Received
	}
	for _, name := range []string{"cleaner", "ohlc-bars", "technical-analysis", "correlation", "strategy-0", "master"} {
		if byName[name] == 0 {
			t.Errorf("node %q received no messages", name)
		}
	}
}

func TestPipelineMultipleStrategyNodes(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	p1 := pipelineParams()
	p2 := pipelineParams()
	p2.HP = 40
	p2.D = 0.008
	cfg := PipelineConfig{
		Universe: u,
		Params:   []strategy.Params{p1, p2},
		Workers:  2,
	}
	res, err := RunPipeline(context.Background(), cfg, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trades) != 2 {
		t.Fatalf("Trades groups = %d, want 2", len(res.Trades))
	}
	// The tighter divergence threshold (p2) must not trade more than p1.
	if len(res.Trades[1]) > len(res.Trades[0]) {
		t.Errorf("wider threshold traded more: p1=%d p2=%d", len(res.Trades[0]), len(res.Trades[1]))
	}
}

// TestPipelineMatchesBatchBacktest is the integration cross-check: the
// streaming Figure-1 path and the production batch path
// (backtest.PrepareDay → corr.Day.Series → strategy.DayGrid) produce
// bit-identical trades from the same generated day, for every
// correlation treatment: on the 4-stock test day, and on day 0 of a
// 20-stock default market for the first base-grid level of each
// window length M. With MM_VERIFY=1 it also runs the default
// 61-stock day with all 14 base-grid levels, one pipeline per (M,
// treatment) carrying every level of that M (a minute or more on two
// cores, so only verify.sh sets it).
func TestPipelineMatchesBatchBacktest(t *testing.T) {
	gen := testGenerator(t, testUniverse(t))
	day, err := gen.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	bd := newBatchDay(t, gen)
	for _, ct := range corr.Types() {
		t.Run(ct.String(), func(t *testing.T) {
			matchBatch(t, bd, day.Quotes, []strategy.Params{pipelineParams().WithType(ct)}, 1)
		})
	}
	if testing.Short() {
		return
	}
	gen20, day20 := defaultMarketDay(t, 20)
	bd20 := newBatchDay(t, gen20)
	for _, lvl := range strategy.BaseGrid()[:3] { // M = 100, 50, 200
		for _, ct := range corr.Types() {
			p := lvl.WithType(ct)
			t.Run(fmt.Sprintf("stocks20/M%d/%s", p.M, ct), func(t *testing.T) {
				matchBatch(t, bd20, day20, []strategy.Params{p}, 2)
			})
		}
	}
	if os.Getenv("MM_VERIFY") != "1" {
		return
	}
	n := taq.DefaultUniverse().Len()
	genAll, dayAll := defaultMarketDay(t, n)
	bdAll := newBatchDay(t, genAll)
	byM := map[int][]strategy.Params{}
	var ms []int
	for _, lvl := range strategy.BaseGrid() {
		if byM[lvl.M] == nil {
			ms = append(ms, lvl.M)
		}
		byM[lvl.M] = append(byM[lvl.M], lvl)
	}
	for _, m := range ms {
		for _, ct := range corr.Types() {
			levels := make([]strategy.Params, len(byM[m]))
			for i, lvl := range byM[m] {
				levels[i] = lvl.WithType(ct)
			}
			t.Run(fmt.Sprintf("stocks%d/M%d/%s", n, m, ct), func(t *testing.T) {
				matchBatch(t, bdAll, dayAll, levels, 2)
			})
		}
	}
}

// defaultMarketDay returns a one-day generator over the first n
// default symbols with every other setting at market.DefaultConfig,
// and its day 0 quotes.
func defaultMarketDay(t *testing.T, n int) (*market.Generator, []taq.Quote) {
	t.Helper()
	u, err := taq.NewUniverse(taq.DefaultSymbols()[:n])
	if err != nil {
		t.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe, mc.Days = u, 1
	gen, err := market.NewGenerator(mc)
	if err != nil {
		t.Fatal(err)
	}
	day, err := gen.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	return gen, day.Quotes
}

// batchDay is the sweep's per-day state for gen's day 0, prepared once
// and shared by every parameter set checked against it.
type batchDay struct {
	gen *market.Generator
	dd  *backtest.DayData
	day *corr.Day
}

func newBatchDay(t *testing.T, gen *market.Generator) *batchDay {
	t.Helper()
	// Every level checked here has the default ∆s, which sets the grid.
	dd, err := backtest.PrepareDay(backtest.Config{Levels: []strategy.Params{pipelineParams()}, Workers: 1}, gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	day, err := corr.NewDay(dd.Returns)
	if err != nil {
		t.Fatal(err)
	}
	return &batchDay{gen: gen, dd: dd, day: day}
}

// matchBatch runs the pipeline with levels, which share M and Ctype,
// over the day's quotes and requires each level's trades to equal
// batchTrades' bit for bit.
func matchBatch(t *testing.T, bd *batchDay, quotes []taq.Quote, levels []strategy.Params, workers int) {
	t.Helper()
	res, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: bd.gen.Config().Universe,
		Params:   levels,
		Workers:  workers,
	}, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchTrades(t, bd, levels, workers)
	for li, want := range batch {
		got := res.Trades[li]
		if len(want) == 0 {
			t.Fatalf("level %d: batch path produced no trades", li)
		}
		if len(got) != len(want) {
			t.Fatalf("level %d: stream %d trades, batch %d", li, len(got), len(want))
		}
		for i := range want {
			a, b := got[i], want[i]
			if a.EntryS != b.EntryS || a.ExitS != b.ExitS || math.Float64bits(a.Return) != math.Float64bits(b.Return) {
				t.Errorf("level %d trade %d differs: stream %+v batch %+v", li, i, a, b)
			}
		}
		t.Logf("level %d: %d trades bit-equal", li, len(want))
	}
}

// batchTrades runs the sweep's per-day path for levels, which share M
// and Ctype, through one DayGrid and returns each level's trades over
// every pair, in pair-id order.
func batchTrades(t *testing.T, bd *batchDay, levels []strategy.Params, workers int) [][]strategy.Trade {
	t.Helper()
	p := levels[0]
	css, err := bd.day.Series(corr.EngineConfig{M: p.M, Workers: workers}, []corr.Type{p.Ctype})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := strategy.NewDayGrid(levels)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]strategy.Trade, len(levels))
	for pid, pr := range taq.AllPairs(len(bd.dd.Returns)) {
		if err := grid.Run(css[0].Corr[pid], css[0].FirstS, bd.dd.PG, pr.I, pr.J, 0); err != nil {
			t.Fatal(err)
		}
		for li := range levels {
			out[li] = append(out[li], grid.Trades(li)...)
		}
	}
	return out
}

func TestPipelineValidation(t *testing.T) {
	u := testUniverse(t)
	if _, err := RunPipeline(context.Background(), PipelineConfig{Universe: u}, nil, 0); err == nil {
		t.Error("no params should error")
	}
	p1 := pipelineParams()
	p2 := pipelineParams()
	p2.M = p1.M * 2
	if _, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u, Params: []strategy.Params{p1, p2},
	}, nil, 0); err == nil {
		t.Error("disagreeing M should error")
	}
	p3 := pipelineParams()
	p3.Ctype = corr.Maronna
	if _, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u, Params: []strategy.Params{p1, p3},
	}, nil, 0); err == nil {
		t.Error("disagreeing Ctype should error")
	}
	if _, err := RunPipeline(context.Background(), PipelineConfig{
		Params: []strategy.Params{p1},
	}, nil, 0); err == nil {
		t.Error("nil universe should error")
	}
}

func TestPipelineEmptyStream(t *testing.T) {
	u := testUniverse(t)
	res, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u,
		Params:   []strategy.Params{pipelineParams()},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.QuotesIn != 0 || res.Matrices != 0 || len(res.Trades[0]) != 0 {
		t.Errorf("empty stream produced activity: %+v", res)
	}
}

func TestPipelineGraphDOT(t *testing.T) {
	u := testUniverse(t)
	res, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u,
		Params:   []strategy.Params{pipelineParams()},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"collector", "cleaner", "ohlc-bars", "technical-analysis", "correlation", "strategy-0", "master"} {
		if !strings.Contains(res.GraphDOT, want) {
			t.Errorf("GraphDOT missing node %q:\n%s", want, res.GraphDOT)
		}
	}
}

// TestPipelineRiskLimits runs the same feed with tight limits: entries
// get rejected, matching exits are suppressed, and the accepted book
// still nets out flat at the close.
func TestPipelineRiskLimits(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	p := pipelineParams()
	unlimited, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u, Params: []strategy.Params{p},
	}, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.OrdersRejected != 0 {
		t.Fatalf("unlimited run rejected %d legs", unlimited.OrdersRejected)
	}
	limited, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u,
		Params:   []strategy.Params{p},
		Risk:     risk.Limits{MaxGrossExposure: 400},
	}, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if limited.OrdersRejected == 0 {
		t.Fatal("tight gross limit rejected nothing")
	}
	if limited.Orders >= unlimited.Orders {
		t.Errorf("limited accepted %d legs, unlimited %d", limited.Orders, unlimited.Orders)
	}
	if !limited.BookFlat {
		t.Error("accepted book should still be flat at the close")
	}
}
