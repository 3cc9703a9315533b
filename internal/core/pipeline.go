// Package core wires the full MarketMiner pair-trading system of the
// paper's Figure 1 on top of the channel-based stream engine: data
// adapters (live/file collectors) feed a cleaning stage, an OHLC bar
// accumulator (of which only each interval's close is read, and kept),
// a technical-analysis (returns) stage, the parallel correlation
// engine, one pair-trading strategy node per parameter set, and a
// master order-aggregation sink — "the outputs from each strategy
// (trade decisions) can be gathered by a master process".
//
// This is the paper's Approach 3: the strategy consumes correlation
// matrices as they stream out of the engine, with no per-pair
// recomputation, and order requests aggregate into a single basket.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/engine"
	"marketminer/internal/portfolio"
	"marketminer/internal/risk"
	"marketminer/internal/series"
	"marketminer/internal/strategy"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
)

// edgeBuffer is the channel depth between nodes.
const edgeBuffer = 256

// PipelineConfig configures one Figure-1 pipeline run.
type PipelineConfig struct {
	// Universe of tradeable stocks.
	Universe *taq.Universe
	// Clean configures the tick filter node.
	Clean clean.Config
	// Params are the strategy parameter sets; each gets its own
	// strategy node fanned out from the correlation engine. All sets
	// must share ∆s, M and Ctype (one correlation engine per
	// pipeline, exactly as in Figure 1).
	Params []strategy.Params
	// Workers bounds the correlation engine's parallelism.
	Workers int
	// Risk configures the master node's pre-trade limits; the zero
	// value is unlimited (the paper's evaluated configuration).
	Risk risk.Limits
	// Supervise, when non-nil, runs the DAG under the fault-tolerance
	// runtime: panic isolation with poison-message quarantine on the
	// data stages, crash-safe correlation-engine snapshots, and
	// graceful drain. See SuperviseOptions.
	Supervise *SuperviseOptions
	// ReturnsTap, when non-nil, observes every cross-sectional
	// log-return vector the technical-analysis stage emits, in grid
	// order, before the correlation engine consumes it. The signature
	// matches broker.Broker.OfferReturns, which is the intended sink:
	// wiring a tap turns a pipeline run into a broker feed. The tap
	// must not retain rets; a returned error fails the TA stage.
	ReturnsTap func(s int, rets []float64) error
}

func (c PipelineConfig) validate() error {
	if c.Universe == nil || c.Universe.Len() < 2 {
		return errors.New("core: universe with ≥ 2 stocks required")
	}
	if len(c.Params) == 0 {
		return errors.New("core: at least one parameter set required")
	}
	p0 := c.Params[0]
	for _, p := range c.Params {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.DeltaS != p0.DeltaS || p.M != p0.M || p.Ctype != p0.Ctype {
			return fmt.Errorf("core: parameter sets disagree on (∆s, M, Ctype): %v vs %v", p, p0)
		}
	}
	return nil
}

// tickMsg marks that the shared price grid is complete through
// interval S (inclusive).
type tickMsg struct{ S int }

// retMsg carries the cross-sectional log-return vector of interval S.
type retMsg struct {
	S    int
	Rets []float64
}

// corrMsg carries the correlation matrix of the window ending at S.
type corrMsg struct {
	S      int
	Matrix *corr.Matrix
}

// basket is a two-leg order bundle from one strategy instance; the
// master accepts or rejects it atomically. Key identifies the
// (strategy node, pair) so that exits of risk-rejected entries are
// suppressed and the book stays consistent with accepted state only.
type basket struct {
	Key   [2]int // (strategy node index, pair id)
	Entry bool
	Legs  []portfolio.Order
}

// PipelineResult summarises one pipeline run.
type PipelineResult struct {
	// Trades per parameter set, in completion order.
	Trades [][]strategy.Trade
	// Orders is the number of order legs the master accepted.
	Orders int
	// OrdersRejected is the number of legs rejected by risk limits.
	OrdersRejected int
	// CashPnL is the realised cash of the accepted baskets, which is
	// the trading profit once the book is flat. The master keeps each
	// strategy node's cash apart and sums them in node order, so the
	// value does not depend on the order in which concurrent nodes'
	// baskets reach it. Under risk limits, which baskets are accepted
	// still can.
	CashPnL float64
	// BookFlat reports whether all positions were closed by day end.
	BookFlat bool
	// Matrices is the number of correlation matrices produced.
	Matrices int
	// QuotesIn / QuotesClean count raw and surviving quotes.
	QuotesIn    int
	QuotesClean int
	// NodeStats are the engine's per-node message counters.
	NodeStats []engine.Stats
	// GraphDOT is the executed DAG in Graphviz dot format — a
	// machine-readable Figure 1.
	GraphDOT string
	// Supervision is the fault-tolerance runtime's accounting (nil
	// when PipelineConfig.Supervise is nil).
	Supervision *SupervisionReport
}

// QuoteSource feeds the pipeline's collector node. It must call emit
// for every quote (time-sorted, as a live feed is) and return when the
// stream ends or emit reports false (pipeline shutdown). This is the
// seam where the paper's interchangeable "Live Collector" / "File
// Collector" adapters plug in: an in-memory slice, a CSV replay, or a
// networked feed.Collector all look identical to the DAG.
//
// The collector node gathers emitted quotes into batches (see
// quoteBatch) and forwards a batch when it is full, when the source
// returns, and when the source is about to wait for input. Of the
// sources here only ChannelSource waits for input, and it says so
// through ctx: a source that wraps another must hand on the ctx it was
// given, and a live adapter that blocks between quotes should deliver
// them through a channel and ChannelSource, or its last few quotes
// wait in a partial batch until the next ones arrive.
type QuoteSource func(ctx context.Context, emit func(taq.Quote) bool) error

// SliceSource adapts an in-memory day of quotes to a QuoteSource.
func SliceSource(quotes []taq.Quote) QuoteSource {
	return func(ctx context.Context, emit func(taq.Quote) bool) error {
		for _, q := range quotes {
			if !emit(q) {
				return nil
			}
		}
		return nil
	}
}

// ChannelSource adapts a quote channel (e.g. feed.Collector.Quotes) to
// a QuoteSource; the stream ends when the channel closes. It takes
// every quote already in the channel and, the moment the channel is
// empty, has the collector node forward what it holds before waiting —
// so a quote never sits in a partial batch while the feed is idle.
func ChannelSource(ch <-chan taq.Quote) QuoteSource {
	return func(ctx context.Context, emit func(taq.Quote) bool) error {
		flush := idleFlush(ctx)
		for {
			var q taq.Quote
			var ok bool
			select {
			case q, ok = <-ch:
			default:
				if !flush() {
					return nil
				}
				select {
				case q, ok = <-ch:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if !ok || !emit(q) {
				return nil
			}
		}
	}
}

// RunPipeline executes the Figure-1 DAG over one day's quote stream
// (which must be time-sorted, as a live feed is). It blocks until the
// stream is exhausted and every node has drained.
func RunPipeline(ctx context.Context, cfg PipelineConfig, quotes []taq.Quote, day int) (*PipelineResult, error) {
	return RunPipelineSource(ctx, cfg, SliceSource(quotes), day)
}

// RunPipelineSource executes the Figure-1 DAG over a streaming quote
// source — the networked deployment path, where the collector node is
// backed by a feed.Collector instead of an in-memory day.
func RunPipelineSource(ctx context.Context, cfg PipelineConfig, source QuoteSource, day int) (*PipelineResult, error) {
	return runPipeline(ctx, cfg, source, day, quoteBatchCap)
}

// runPipeline is RunPipelineSource with the quote-batch capacity as a
// parameter, which tests vary to show results do not depend on it.
func runPipeline(ctx context.Context, cfg PipelineConfig, source QuoteSource, day, batchCap int) (*PipelineResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if source == nil {
		return nil, errors.New("core: nil quote source")
	}
	p0 := cfg.Params[0]
	grid, err := series.NewGrid(p0.DeltaS)
	if err != nil {
		return nil, err
	}
	n := cfg.Universe.Len()

	// Shared day state. The bar node completes interval s in the grid
	// before emitting tickMsg{s}; channel delivery orders those writes
	// before any downstream read of intervals ≤ s.
	pg := &series.PriceGrid{Grid: grid, Prices: make([][]float64, n)}
	for i := range pg.Prices {
		row := make([]float64, grid.SMax)
		for s := range row {
			row[s] = math.NaN()
		}
		pg.Prices[i] = row
	}

	online, err := corr.NewOnlineEngine(corr.EngineConfig{Type: p0.Ctype, M: p0.M, Workers: cfg.Workers}, n)
	if err != nil {
		return nil, err
	}

	sup, err := newSupervisor(cfg.Supervise)
	if err != nil {
		return nil, err
	}
	// The snapshot fingerprint binds warm state to everything that
	// shapes it: engine configuration plus day and grid spacing.
	fingerprint := fmt.Sprintf("%s|day=%d|ds=%d", online.Fingerprint(), day, p0.DeltaS)
	sup.restore(online, fingerprint)
	// In drain mode the graph runs on a detached context and only the
	// source observes user cancellation: the stream ends, every stage
	// finishes its in-flight work, and partial results come back clean.
	drain := sup != nil && sup.opts.DrainTimeout > 0
	if drain {
		source = stopOnCancel(source, ctx)
	}

	res := &PipelineResult{Trades: make([][]strategy.Trade, len(cfg.Params))}
	g := engine.NewGraph()

	// Source: the data adapter ("Live Collector" / "File Collector").
	// Quotes leave it in batches; see quoteBatch for the contract.
	pool := &batchPool{cap: batchCap}
	src := g.Source("collector", collectorSource(source, pool, &res.QuotesIn))

	// Cleaning stage (the TCP-like filter of §III).
	filter := clean.NewFilter(cfg.Clean)
	cleaner := g.Node("cleaner", 1, cleanerProc(sup.wrapQuote("cleaner", func(q taq.Quote) bool {
		return filter.Accept(q) == clean.OK
	}), pool, &res.QuotesClean))

	// OHLC bar accumulator: folds each quote's mid into the shared
	// grid as its stock's close and emits one tick per completed
	// interval.
	bars := newBarNode(grid, cfg.Universe, pg, pool)
	barNode := g.Node("ohlc-bars", 1, bars.process)
	g.OnDrain(barNode, bars.drain)

	// Technical analysis: per-interval log-return vectors.
	ta := &taNode{pg: pg, n: n, tap: cfg.ReturnsTap}
	taNodeID := g.Node("technical-analysis", 1, ta.process)

	// Parallel correlation engine.
	corrNode := g.Node("correlation", 1, sup.wrap("correlation", intervalKey, func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		rm := m.(retMsg)
		if sup.skip(rm.S) {
			// The restored warm windows already contain this interval.
			return nil
		}
		mx, err := online.Push(rm.Rets)
		if err != nil {
			if sup != nil {
				// Supervised runs treat a bad return vector as poison
				// data, not a stream abort: the panic routes it to
				// quarantine and the day continues. (A failed Push never
				// advances the ring, so skipping the interval leaves the
				// engine consistent.)
				panic(fmt.Sprintf("correlation: interval %d: %v", rm.S, err))
			}
			return err
		}
		if mx != nil {
			res.Matrices++
			emit(corrMsg{S: rm.S, Matrix: mx})
			if err := sup.snapshot(online, fingerprint, rm.S); err != nil {
				return err
			}
		}
		return nil
	}))

	// One strategy node per parameter set, all fed by the correlation
	// engine, all reporting orders to the master.
	stratNodes := make([]*strategyNode, len(cfg.Params))
	stratIDs := make([]engine.NodeID, len(cfg.Params))
	for i, p := range cfg.Params {
		sn, err := newStrategyNode(i, p, n, pg, day)
		if err != nil {
			return nil, err
		}
		stratNodes[i] = sn
		name := fmt.Sprintf("strategy-%d", i)
		stratIDs[i] = g.Node(name, 1, sup.wrap(name, matrixKey, sn.process))
	}

	// Master: aggregates order baskets into a single book behind the
	// risk manager ("risk management and liquidity provisioning").
	manager, err := risk.NewManager(cfg.Risk)
	if err != nil {
		return nil, err
	}
	var bookMu sync.Mutex
	suppressed := make(map[[2]int]bool)
	cash := make([]float64, len(stratNodes)) // realised cash per strategy node
	accept := func(b basket) {
		res.Orders += len(b.Legs)
		for _, o := range b.Legs {
			cash[b.Key[0]] += o.Cash()
		}
	}
	master := g.Node("master", 1, func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		b := m.(basket)
		bookMu.Lock()
		defer bookMu.Unlock()
		if !b.Entry {
			if suppressed[b.Key] {
				// The matching entry was rejected; drop the exit too.
				delete(suppressed, b.Key)
				return nil
			}
			// Exits are never blocked (risk-off flow).
			if err := manager.ApplyClosingPair(b.Legs); err != nil {
				return err
			}
			accept(b)
			return nil
		}
		if err := manager.ApplyPair(b.Legs); err != nil {
			var rej *risk.ErrRejected
			if errors.As(err, &rej) {
				res.OrdersRejected += len(b.Legs)
				if b.Entry {
					suppressed[b.Key] = true
				}
				return nil
			}
			return err
		}
		accept(b)
		return nil
	})

	g.Connect(src, cleaner, edgeBuffer)
	g.Connect(cleaner, barNode, edgeBuffer)
	g.Connect(barNode, taNodeID, edgeBuffer)
	g.Connect(taNodeID, corrNode, edgeBuffer)
	for i := range stratIDs {
		g.Connect(corrNode, stratIDs[i], edgeBuffer)
		g.Connect(stratIDs[i], master, edgeBuffer)
	}

	res.GraphDOT = g.DOT("marketminer-figure1")
	if drain {
		detached, abort := context.WithCancel(context.WithoutCancel(ctx))
		defer abort()
		done := make(chan struct{})
		var runErr error
		go func() {
			defer close(done)
			runErr = g.Run(detached)
		}()
		drained := supervise.GracefulDrain(ctx, done, sup.opts.DrainTimeout, abort)
		sup.report.Drained = drained
		if runErr != nil && (drained || !errors.Is(runErr, context.Canceled)) {
			return nil, runErr
		}
	} else {
		if err := g.Run(ctx); err != nil {
			return nil, err
		}
		if sup != nil {
			sup.report.Drained = true
		}
	}
	for i, sn := range stratNodes {
		res.Trades[i] = sn.trades()
	}
	for _, c := range cash {
		res.CashPnL += c
	}
	res.BookFlat = manager.Book().Flat()
	res.NodeStats = g.Stats()
	sup.finish(res)
	return res, nil
}

// barNode is Figure 1's OHLC bar accumulator cut to the one field of a
// bar read downstream, the close: it folds cleaned quotes' mids into
// the shared price grid, carrying levels forward across empty
// intervals, and emits a tick per completed interval.
type barNode struct {
	grid series.Grid
	uni  *taq.Universe
	pg   *series.PriceGrid
	last []float64
	cur  int
	seen bool
	pool *batchPool
}

func newBarNode(grid series.Grid, uni *taq.Universe, pg *series.PriceGrid, pool *batchPool) *barNode {
	last := make([]float64, uni.Len())
	for i := range last {
		last[i] = math.NaN()
	}
	return &barNode{grid: grid, uni: uni, pg: pg, last: last, pool: pool}
}

// process folds one batch of cleaned quotes, in order, and returns the
// batch to the pool: the bar node is the last stage to see it.
func (b *barNode) process(ctx context.Context, m engine.Message, emit engine.Emit) error {
	batch := m.(*quoteBatch)
	for _, q := range batch.quotes {
		b.add(q, emit)
	}
	b.pool.put(batch)
	return nil
}

func (b *barNode) add(q taq.Quote, emit engine.Emit) {
	s, ok := b.grid.Index(q.SeqTime)
	if !ok {
		return
	}
	i, ok := b.uni.Index(q.Symbol)
	if !ok {
		return
	}
	if !b.seen {
		b.cur = s
		b.seen = true
	}
	if s > b.cur {
		b.flush(s, emit)
	}
	b.last[i] = q.Mid()
}

// flush completes intervals cur..s-1 into the grid and emits ticks.
func (b *barNode) flush(s int, emit engine.Emit) {
	for t := b.cur; t < s && t < b.grid.SMax; t++ {
		for i := range b.last {
			b.pg.Prices[i][t] = b.last[i]
		}
		emit(tickMsg{S: t})
	}
	b.cur = s
}

func (b *barNode) drain(ctx context.Context, emit engine.Emit) error {
	if b.seen {
		b.flush(b.grid.SMax, emit)
	}
	return nil
}

// taNode converts completed intervals into cross-sectional log-return
// vectors once every stock has a defined price.
type taNode struct {
	pg  *series.PriceGrid
	n   int
	tap func(s int, rets []float64) error
}

func (t *taNode) process(ctx context.Context, m engine.Message, emit engine.Emit) error {
	tm := m.(tickMsg)
	s := tm.S
	// Wait until all stocks have printed at both s-1 and s.
	if s == 0 {
		return nil
	}
	for i := 0; i < t.n; i++ {
		if math.IsNaN(t.pg.Prices[i][s-1]) || math.IsNaN(t.pg.Prices[i][s]) {
			return nil
		}
	}
	rets := make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		rets[i] = math.Log(t.pg.Prices[i][s] / t.pg.Prices[i][s-1])
	}
	if t.tap != nil {
		if err := t.tap(s, rets); err != nil {
			return err
		}
	}
	emit(retMsg{S: s, Rets: rets})
	return nil
}

// strategyNode runs one Tracker per pair for a single parameter set.
// The trailing-W correlations behind C̄ are one slot-major ring,
// ring[slot·np+k] as in the broker's pairRings: interval n writes row
// n mod W, the oldest once the ring is full.
type strategyNode struct {
	idx      int // node index within the pipeline
	p        strategy.Params
	pairs    []taq.Pair
	trackers []*strategy.Tracker
	sums     []float64 // rolling C sums for C̄
	ring     []float64
	n        int // intervals folded into the ring
	pg       *series.PriceGrid
}

func newStrategyNode(idx int, p strategy.Params, n int, pg *series.PriceGrid, day int) (*strategyNode, error) {
	pairs := taq.AllPairs(n)
	sn := &strategyNode{idx: idx, p: p, pairs: pairs, pg: pg}
	sn.trackers = make([]*strategy.Tracker, len(pairs))
	sn.sums = make([]float64, len(pairs))
	sn.ring = make([]float64, p.W*len(pairs))
	for k, pr := range pairs {
		tr, err := strategy.NewTracker(p, pr.I, pr.J, day)
		if err != nil {
			return nil, err
		}
		sn.trackers[k] = tr
	}
	return sn, nil
}

// process folds one matrix into the ring and steps every pair once its
// window is full. Each pair drops the C in its slot from its sum before
// adding the new one: an unfilled slot holds 0, and x−0 is x bit for
// bit, so C̄ is the same sum a per-pair window keeps. The ring moves
// after the pass, so a pass that panics leaves that interval out of
// every pair's window.
func (sn *strategyNode) process(ctx context.Context, m engine.Message, emit engine.Emit) error {
	cm := m.(corrMsg)
	np := len(sn.pairs)
	slot := sn.n % sn.p.W
	row := sn.ring[slot*np : (slot+1)*np]
	full := sn.n+1 >= sn.p.W
	for k := range row {
		c := cm.Matrix.AtPair(k)
		sn.sums[k] -= row[k]
		row[k] = c
		sn.sums[k] += c
		if !full {
			continue
		}
		cbar := sn.sums[k] / float64(sn.p.W)
		trade, orders := sn.trackers[k].Step(cm.S, c, cbar, sn.pg)
		if len(orders) > 0 {
			emit(basket{Key: [2]int{sn.idx, k}, Entry: trade == nil, Legs: orders})
		}
	}
	sn.n++
	return nil
}

func (sn *strategyNode) trades() []strategy.Trade {
	var out []strategy.Trade
	for _, tr := range sn.trackers {
		out = append(out, tr.Trades()...)
	}
	return out
}
