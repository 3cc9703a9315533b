// Package marketminer is a Go reproduction of "A High Performance Pair
// Trading Application" (Wang, Rostoker, Wagner — 2009): the MarketMiner
// analytics platform rebuilt on goroutines and channels instead of MPI,
// together with the paper's canonical intra-day statistical pair
// trading strategy, its brute-force backtesting methodology, and the
// full evaluation harness for Tables III–V and Figures 1–2.
//
// This root package is the stable facade: it re-exports the core types
// from the internal packages and provides turnkey constructors for the
// three workflows a user needs —
//
//   - Backtest: the integrated Approach-3 sweep over pairs × parameter
//     sets × days (see BacktestConfig, RunBacktest);
//   - Live: the Figure-1 streaming DAG over a quote feed
//     (see PipelineConfig, RunLivePipeline);
//   - Data: synthetic TAQ generation standing in for the proprietary
//     NYSE dataset (see MarketConfig, NewMarket).
//
// The packages under internal/ are the implementation: taq (data
// model), market (synthetic TAQ), clean (tick filter), series (grids,
// returns, bars), stats (descriptive statistics), corr (Pearson,
// Maronna, Combined + parallel engine), engine (channel DAG runtime),
// strategy (the §III state machine), portfolio (orders and P&L),
// backtest (sweep configuration, day preparation, results), sweep (the
// batch drivers and their day cache), metrics (Equations (1)–(9)),
// report (the paper's tables), sched (SGE-like farm baseline), feed
// (the networked quote-distribution layer: binary codec, replay
// server, resilient collector client), supervise (the fault-tolerance
// runtime: restart policies, quarantine, crash-safe snapshots) and
// chaos (deterministic fault injection for the networked pipeline).
package marketminer

import (
	"context"

	"marketminer/internal/backtest"
	"marketminer/internal/chaos"
	"marketminer/internal/clean"
	"marketminer/internal/core"
	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/report"
	"marketminer/internal/strategy"
	"marketminer/internal/supervise"
	"marketminer/internal/sweep"
	"marketminer/internal/taq"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import path.
type (
	// Quote is one TAQ quote record (Table II).
	Quote = taq.Quote
	// Universe is an ordered symbol set with dense indices.
	Universe = taq.Universe
	// Pair is an unordered stock pair (I < J).
	Pair = taq.Pair
	// Params is a strategy parameter vector (Table I).
	Params = strategy.Params
	// Trade is one completed round-trip pair trade.
	Trade = strategy.Trade
	// CorrType selects Pearson, Maronna or Combined.
	CorrType = corr.Type
	// MarketConfig parameterises the synthetic TAQ generator.
	MarketConfig = market.Config
	// MarketGenerator produces synthetic trading days.
	MarketGenerator = market.Generator
	// CleanConfig tunes the TCP-like tick filter.
	CleanConfig = clean.Config
	// BacktestConfig describes a sweep (market, levels, types).
	BacktestConfig = backtest.Config
	// BacktestResult is the collected return data of one sweep.
	BacktestResult = backtest.Result
	// Aggregate is one Table III/IV/V population per correlation type.
	Aggregate = backtest.Aggregate
	// PipelineConfig configures the Figure-1 streaming DAG.
	PipelineConfig = core.PipelineConfig
	// PipelineResult summarises one streaming run.
	PipelineResult = core.PipelineResult
	// QuoteSource feeds the pipeline's collector node — the seam where
	// the in-memory, file-replay and networked collectors plug in.
	QuoteSource = core.QuoteSource
	// FeedServerConfig tunes a quote-distribution server.
	FeedServerConfig = feed.ServerConfig
	// FeedServer replays quote streams to networked subscribers. Its
	// retained log keeps the publisher's own memory: do not modify
	// quotes after handing them to PublishBatch.
	FeedServer = feed.Server
	// FeedCollectorConfig tunes a networked collector client.
	FeedCollectorConfig = feed.CollectorConfig
	// FeedCollector subscribes to a FeedServer with automatic
	// reconnect, resume and gap detection.
	FeedCollector = feed.Collector
	// SuperviseOptions runs the pipeline under the fault-tolerance
	// runtime (panic isolation, quarantine, crash-safe engine
	// snapshots, graceful drain); set PipelineConfig.Supervise.
	SuperviseOptions = core.SuperviseOptions
	// SupervisionReport is the runtime's accounting for one run.
	SupervisionReport = core.SupervisionReport
	// SupervisePolicy tunes restart backoff and circuit breaking.
	SupervisePolicy = supervise.Policy
	// ChaosSpec is a deterministic fault-injection schedule; parse one
	// with ParseChaosSpec.
	ChaosSpec = chaos.Spec
	// Chaos injects a ChaosSpec into connections, listeners, dialers
	// and quote sources.
	Chaos = chaos.Chaos
	// ChaosStats counts the faults a Chaos actually injected.
	ChaosStats = chaos.Stats
)

// Correlation treatments (the paper's Ctype).
const (
	Pearson  = corr.Pearson
	Maronna  = corr.Maronna
	Combined = corr.Combined
)

// DefaultUniverse returns the 61-stock universe standing in for the
// paper's "61 highly liquid US stocks".
func DefaultUniverse() *Universe { return taq.DefaultUniverse() }

// NewUniverse builds a universe from symbols.
func NewUniverse(symbols []string) (*Universe, error) { return taq.NewUniverse(symbols) }

// DefaultParams returns the §III worked-example parameter vector.
func DefaultParams() Params { return strategy.DefaultParams() }

// ParamLevels returns the paper's 14 non-treatment parameter vectors.
func ParamLevels() []Params { return strategy.BaseGrid() }

// ParamGrid returns the full 42-set grid (14 levels × 3 treatments).
func ParamGrid() []Params { return strategy.FullGrid() }

// CorrTypes lists the three correlation treatments.
func CorrTypes() []CorrType { return corr.Types() }

// NewMarket builds a synthetic TAQ generator; the zero MarketConfig
// yields the paper-scale default (61 stocks, 20 days).
func NewMarket(cfg MarketConfig) (*MarketGenerator, error) { return market.NewGenerator(cfg) }

// DefaultMarketConfig returns the paper-scale generator configuration.
func DefaultMarketConfig() MarketConfig { return market.DefaultConfig() }

// RunBacktest executes the integrated (Approach 3) sweep: shared
// parallel correlation series, every pair × parameter set × day.
func RunBacktest(ctx context.Context, cfg BacktestConfig) (*BacktestResult, error) {
	return sweep.Backtest(ctx, cfg)
}

// RunBacktestFarm executes the same sweep as independent jobs on the
// SGE-like scheduler — the paper's Approach-2 baseline. It computes
// identical results with asymptotically more work; use it only for the
// performance comparison.
func RunBacktestFarm(ctx context.Context, cfg BacktestConfig) (*BacktestResult, error) {
	return sweep.Farm(ctx, cfg)
}

// RunLivePipeline executes the Figure-1 DAG over a time-sorted quote
// stream: collector → cleaner → OHLC bars → technical analysis →
// parallel correlation engine → strategy nodes → master book.
func RunLivePipeline(ctx context.Context, cfg PipelineConfig, quotes []Quote, day int) (*PipelineResult, error) {
	return core.RunPipeline(ctx, cfg, quotes, day)
}

// RunLivePipelineFrom executes the Figure-1 DAG over an arbitrary
// QuoteSource — typically ChannelSource(collector.Quotes()) for a
// networked feed, or SliceSource for in-memory replay.
func RunLivePipelineFrom(ctx context.Context, cfg PipelineConfig, src QuoteSource, day int) (*PipelineResult, error) {
	return core.RunPipelineSource(ctx, cfg, src, day)
}

// SliceSource adapts an in-memory quote slice to a QuoteSource.
func SliceSource(quotes []Quote) QuoteSource { return core.SliceSource(quotes) }

// ChannelSource adapts a quote channel (e.g. FeedCollector.Quotes) to
// a QuoteSource; it ends when the channel closes.
func ChannelSource(ch <-chan Quote) QuoteSource { return core.ChannelSource(ch) }

// NewFeedServer builds a quote-distribution server for the given
// universe; see FeedServerConfig for tuning.
func NewFeedServer(cfg FeedServerConfig) (*FeedServer, error) { return feed.NewServer(cfg) }

// NewFeedCollector builds a resilient feed client; run it with
// Run(ctx) and consume Quotes().
func NewFeedCollector(cfg FeedCollectorConfig) *FeedCollector { return feed.NewCollector(cfg) }

// ParseChaosSpec parses a deterministic fault-injection schedule, e.g.
// "seed=7,corrupt=8192,cut=65536,partition=5".
func ParseChaosSpec(text string) (ChaosSpec, error) { return chaos.ParseSpec(text) }

// NewChaos builds a fault injector from a spec; wrap listeners,
// dialers or quote sources with it.
func NewChaos(spec ChaosSpec) *Chaos { return chaos.New(spec) }

// FormatTableIII renders the Table III statistics of a finished sweep.
func FormatTableIII(r *BacktestResult) string {
	return report.TableIII(r.CumulativeMonthlyReturns())
}

// FormatTableIV renders the Table IV statistics.
func FormatTableIV(r *BacktestResult) string {
	return report.TableIV(r.MaxDailyDrawdowns())
}

// FormatTableV renders the Table V statistics.
func FormatTableV(r *BacktestResult) string {
	return report.TableV(r.WinLossRatios())
}

// FormatFigure2 renders the three box-plot panels of Figure 2.
func FormatFigure2(r *BacktestResult) string {
	return report.Figure2("Average cumulative monthly returns", r.CumulativeMonthlyReturns()) +
		"\n" + report.Figure2("Average maximum daily drawdown", r.MaxDailyDrawdowns()) +
		"\n" + report.Figure2("Average win-loss ratio", r.WinLossRatios())
}

// Scale selects a pre-sized experiment configuration.
type Scale int

// Experiment scales. Paper scale is the full 61-stock, 20-day, 42-set
// sweep; Small and Tiny shrink the universe and calendar so the whole
// experiment runs in seconds/minutes on a laptop while preserving the
// qualitative results.
const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScalePaper
)

// SweepConfig returns a ready-to-run BacktestConfig at the given scale
// with the given seed. All scales use the full 14-level × 3-type grid.
func SweepConfig(scale Scale, seed int64) BacktestConfig {
	mc := market.DefaultConfig()
	mc.Seed = seed
	switch scale {
	case ScaleTiny:
		u, _ := taq.NewUniverse(taq.DefaultSymbols()[:8])
		mc.Universe = u
		mc.Days = 2
	case ScaleSmall:
		u, _ := taq.NewUniverse(taq.DefaultSymbols()[:20])
		mc.Universe = u
		mc.Days = 5
	case ScalePaper:
		// Defaults already match the paper: 61 stocks, 20 days.
	}
	return BacktestConfig{Market: mc}
}
