package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/risk"
	"marketminer/internal/series"
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
	day, err := gen.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	return day.Quotes
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
// streaming Figure-1 path and the batch engine produce the same trades
// for the same cleaned data (identical filter, grid and estimator).
func TestPipelineMatchesBatchBacktest(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	p := pipelineParams()

	res, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u,
		Params:   []strategy.Params{p},
		Workers:  1,
	}, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Batch path over the same quotes: replicate the pipeline stages.
	batch, err := batchReplay(u, quotes, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trades[0]) != len(batch) {
		t.Fatalf("stream %d trades, batch %d", len(res.Trades[0]), len(batch))
	}
	for i := range batch {
		a, b := res.Trades[0][i], batch[i]
		if a.EntryS != b.EntryS || a.ExitS != b.ExitS || a.Return != b.Return {
			t.Errorf("trade %d differs: stream %+v batch %+v", i, a, b)
		}
	}
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

// batchReplay reruns the pipeline's semantics sequentially: same
// filter, same grid construction, shared correlation series, same
// strategy — the reference the streaming DAG must agree with.
func batchReplay(u *taq.Universe, quotes []taq.Quote, p strategy.Params) ([]strategy.Trade, error) {
	f := clean.NewFilter(clean.Config{})
	grid, err := series.NewGrid(p.DeltaS)
	if err != nil {
		return nil, err
	}
	sm := series.NewSampler(grid, u)
	for _, q := range quotes {
		if f.Accept(q) == clean.OK {
			sm.Add(q)
		}
	}
	pg := sm.Finish()
	s0 := pg.FirstComplete()
	if s0 < 0 {
		return nil, nil
	}
	n := u.Len()
	rets := make([][]float64, n)
	for i := 0; i < n; i++ {
		rets[i] = series.LogReturns(pg.Prices[i][s0:])
	}
	cs, err := corr.ComputeSeries(corr.EngineConfig{Type: p.Ctype, M: p.M, Workers: 1}, rets)
	if err != nil {
		return nil, err
	}
	var out []strategy.Trade
	for pid, pr := range taq.AllPairs(n) {
		trades, err := strategy.RunDay(p, cs.Corr[pid], s0+cs.FirstS, pg, pr.I, pr.J, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, trades...)
	}
	return out, nil
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
