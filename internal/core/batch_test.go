package core

import (
	"context"
	"testing"
	"time"

	"marketminer/internal/clean"
	"marketminer/internal/engine"
	"marketminer/internal/series"
	"marketminer/internal/taq"
)

// testBarNode is a bar node over u on the test grid, as runPipeline
// builds it.
func testBarNode(t testing.TB, u *taq.Universe, pool *batchPool) *barNode {
	t.Helper()
	grid, err := series.NewGrid(pipelineParams().DeltaS)
	if err != nil {
		t.Fatal(err)
	}
	pg := &series.PriceGrid{Grid: grid, Prices: make([][]float64, u.Len())}
	for i := range pg.Prices {
		pg.Prices[i] = make([]float64, grid.SMax)
	}
	return newBarNode(grid, u, pg, pool)
}

// testCleaner is the unsupervised cleaner node over the default filter.
func testCleaner(pool *batchPool, kept *int) engine.ProcFunc {
	filter := clean.NewFilter(clean.Config{})
	var sup *supervisor
	return cleanerProc(sup.wrapQuote("cleaner", func(q taq.Quote) bool {
		return filter.Accept(q) == clean.OK
	}), pool, kept)
}

// quotePath is the front of the Figure-1 DAG on its own — collector →
// cleaner → ohlc-bars, wired as runPipeline wires it — with the ticks
// the bar node emits going nowhere.
type quotePath struct {
	g         *engine.Graph
	in, clean int
}

// newQuotePath builds the path over source; onBars, when non-nil, runs
// on the bar node after each batch it has folded, with the batch's size.
func newQuotePath(t testing.TB, u *taq.Universe, source QuoteSource, onBars func(quotes int)) *quotePath {
	t.Helper()
	p := &quotePath{g: engine.NewGraph()}
	pool := &batchPool{cap: quoteBatchCap}
	bars := testBarNode(t, u, pool)
	src := p.g.Source("collector", collectorSource(source, pool, &p.in))
	cleaner := p.g.Node("cleaner", 1, testCleaner(pool, &p.clean))
	barNode := p.g.Node("ohlc-bars", 1, func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		n := len(m.(*quoteBatch).quotes)
		err := bars.process(ctx, m, emit)
		if onBars != nil {
			onBars(n)
		}
		return err
	})
	p.g.OnDrain(barNode, bars.drain)
	p.g.Connect(src, cleaner, 256)
	p.g.Connect(cleaner, barNode, 256)
	return p
}

// Flush-on-idle: a quote that arrives on an otherwise idle channel is
// forwarded at once as a batch of one. Nothing else is sent, the
// channel stays open and there is no timer anywhere on the path, so
// the only thing that can carry the quote to the bar node is the
// collector flushing when ChannelSource finds its channel empty.
func TestIdleChannelSourceFlushesPartialBatch(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	ch := make(chan taq.Quote) // unbuffered: the source is idle between sends
	reached := make(chan int, 4)
	p := newQuotePath(t, u, ChannelSource(ch), func(n int) { reached <- n })

	done := make(chan error, 1)
	go func() { done <- p.g.Run(context.Background()) }()
	for i := 0; i < 3; i++ {
		ch <- quotes[i]
		select {
		case n := <-reached:
			if n != 1 {
				t.Fatalf("quote %d reached the bar node in a batch of %d, want 1", i, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("quote %d sent into an idle source never reached the bar node", i)
		}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.in != 3 || p.clean != 3 {
		t.Errorf("in %d clean %d, want 3 and 3", p.in, p.clean)
	}
}

// Under Supervise a batch is unpacked through the per-quote stage: a
// quote that panics the filter in the middle of a batch is quarantined
// under its own key, its neighbours in the batch go on downstream, and
// the stage report counts quotes, not batches.
func TestSupervisedPoisonQuoteMidBatch(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)[:9]
	poison := quotes[4]

	sup, err := newSupervisor(&SuperviseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keep := sup.wrapQuote("cleaner", func(q taq.Quote) bool {
		if q == poison {
			panic("poison quote")
		}
		return true
	})
	pool := &batchPool{cap: quoteBatchCap}
	kept := 0
	proc := cleanerProc(keep, pool, &kept)

	run := func() []taq.Quote {
		b := pool.get()
		b.quotes = append(b.quotes, quotes...)
		var out []taq.Quote
		err := proc(context.Background(), b, func(m engine.Message) bool {
			out = append(out, m.(*quoteBatch).quotes...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := append(append([]taq.Quote(nil), quotes[:4]...), quotes[5:]...)
	for pass, name := range []string{"first sight", "already quarantined"} {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("%s: %d quotes forwarded, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: forwarded quote %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
		if kept != 8*(pass+1) {
			t.Errorf("%s: clean count %d, want %d", name, kept, 8*(pass+1))
		}
	}

	rep := sup.stages[0].Report()
	if rep.Processed != 16 || rep.Panics != 1 || rep.Quarantined != 1 || rep.Skipped != 1 {
		t.Errorf("stage report %+v, want 16 processed, 1 panic, 1 quarantined, 1 skipped", rep)
	}
	key, _ := quoteKey(poison)
	if recs := sup.quar.Records(); len(recs) != 1 || recs[0].Key != "cleaner|"+key {
		t.Errorf("quarantine journal %+v, want the one key %q", recs, "cleaner|"+key)
	}
}

// The steady-state quote path allocates per interval (a tick message,
// the bar stores growing), never per quote: batches come from and go
// back to the pool, and no quote is boxed into an engine.Message.
func TestQuotePathAllocatesNothingPerQuote(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	pool := &batchPool{cap: quoteBatchCap}
	kept := 0
	cleaner, bars := testCleaner(pool, &kept), testBarNode(t, u, pool)
	noTicks := func(engine.Message) bool { return true }
	toBars := func(m engine.Message) bool {
		if err := bars.process(context.Background(), m, noTicks); err != nil {
			t.Error(err)
		}
		return true
	}
	day := func() {
		for lo := 0; lo < len(quotes); lo += quoteBatchCap {
			b := pool.get()
			b.quotes = append(b.quotes, quotes[lo:min(lo+quoteBatchCap, len(quotes))]...)
			if err := cleaner(context.Background(), b, toBars); err != nil {
				t.Error(err)
			}
		}
	}
	day() // the pool now holds its batch and the bar stores their capacity
	warm := kept
	allocs := testing.AllocsPerRun(1, day)
	// AllocsPerRun(1, …) makes two passes and reports the second.
	if through := (kept - warm) / 2; through < len(quotes)/2 {
		t.Fatalf("only %d of %d quotes a pass reached the bar node", through, len(quotes))
	}
	// One allocation per batch would be 0.004 per quote.
	if perQuote := allocs / float64(len(quotes)); perQuote > 0.002 {
		t.Errorf("%.0f allocations per %d quotes (%.4f per quote), want none that scale with quotes or batches",
			allocs, len(quotes), perQuote)
	}
}

// BenchmarkQuotePath is collector → cleaner → ohlc-bars over one
// generated day from memory: the per-quote cost of the pipeline's
// front, hops included.
func BenchmarkQuotePath(b *testing.B) {
	u := testUniverse(b)
	quotes := genQuotes(b, u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := newQuotePath(b, u, SliceSource(quotes), nil)
		if err := p.g.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		if p.in != len(quotes) || p.clean == 0 {
			b.Fatalf("in %d clean %d of %d quotes", p.in, p.clean, len(quotes))
		}
	}
	b.ReportMetric(float64(b.N*len(quotes))/b.Elapsed().Seconds(), "quotes/s")
}
