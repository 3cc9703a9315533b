// Package bench is the repository's benchmark: four workloads (two
// batch sweeps, two online replays through real loopback TCP), the
// end-to-end metrics a user of the system sees, and per-layer budgets
// measured from outside by timing calls into each package's exported
// functions. cmd/mmbench is its command line; BENCHMARK.json at the
// repository root is generated from the tables in this file
// (mmbench list -json), so the two cannot drift.
package bench

import (
	"encoding/json"
	"fmt"
	"regexp"

	"marketminer/internal/corr"
)

// DefaultSeed is the seed golden.json records hashes for.
const DefaultSeed int64 = 20080301

// RunSeconds is how long one run measures. It also fixes the open-loop
// pace: online_paced replays one trading day (23 400 market seconds)
// in exactly this many seconds, i.e. at 1170× market time.
const RunSeconds = 20

// SetupRepeats is how many times a run sets up; setup_s is the median.
const SetupRepeats = 3

// Kind separates the two families of workload.
type Kind string

// Workload kinds.
const (
	Batch  Kind = "batch"
	Online Kind = "online"
)

// Workload is one set of inputs the benchmark runs. Sizes are
// constants of the benchmark, identical on every commit.
type Workload struct {
	Name string
	Kind Kind
	// Why is the one-line reason in BENCHMARK.json.
	Why string
	// Stocks is the universe size (taq.SyntheticSymbols(Stocks)); the
	// pair count is Stocks·(Stocks−1)/2.
	Stocks int
	// Types are the correlation treatments: every one is crossed with
	// the 14 BaseGrid levels on batch workloads; online workloads run
	// the §III default parameter vector under Types[0].
	Types []corr.Type
	// ScreenTopFrac enables the SSD pre-screen on batch workloads.
	ScreenTopFrac float64
	// Paced selects the open-loop publisher (online only); unpaced
	// publishes the whole day at once, as mmfeed does.
	Paced bool
	// Sizes is the human-readable size line for list/README.
	Sizes string
}

// Workloads is the benchmark's workload table.
var Workloads = []Workload{
	{
		Name: "sweep_robust", Kind: Batch, Stocks: 61,
		Types: []corr.Type{corr.Pearson, corr.Maronna, corr.Combined},
		Why:   "paper-shaped sweep, 61 stocks x 14 levels x 3 treatments: the Maronna fixed point is ~90% of the work, so corr kernel, batching and dispatch changes must show here",
		Sizes: "61 stocks (1830 pairs) x 1 day x 14 levels x {Pearson, Maronna, Combined} = 630 units per job, f64, SIMD auto, block 128, sweep.Run (shard 0/1, journal on disk) + sweep.MergeFiles; jobs repeat for the run length",
	},
	{
		Name: "sweep_wide_pearson", Kind: Batch, Stocks: 400,
		Types: []corr.Type{corr.Pearson}, ScreenTopFrac: 0.5,
		Why:   "all-pairs sweep, 400 stocks Pearson-only: correlation is ~free, so generate/clean/sample/screen/strategy/journal/merge do the work; a corr kernel change predicts no change",
		Sizes: "400 stocks (79 800 pairs) x 1 day x 14 levels x {Pearson}, SSD screen TopFrac 0.5, same sweep.Run + merge path; jobs repeat for the run length",
	},
	{
		Name: "online_paced", Kind: Online, Stocks: 61, Paced: true,
		Types: []corr.Type{corr.Maronna},
		Why:   "open loop: one 61-stock day at 1170x market time over loopback TCP, Maronna; the trader's view of how long after an interval's closing quote was due its last signal arrives",
		Sizes: "61 stocks, one day (~712k quotes, 780 intervals, 680 matrices), Maronna, strategy.DefaultParams, open loop at 23400/RunSeconds x market time: feed.Server -> TCP -> feed.Collector -> core.RunPipelineSource -> ReturnsTap -> broker (2 partitions) -> TCP -> one Subscriber",
	},
	{
		Name: "online_saturate", Kind: Online, Stocks: 61,
		Types: []corr.Type{corr.Pearson},
		Why:   "same topology, Pearson, whole day published at once and replayed back to back: sustainable ingest rate, where feed codec, clean, bars, engine hops and broker fan-out dominate and corr is bypassed",
		Sizes: "same topology and day, Pearson, publisher unpaced (PublishBatch of the whole day, as mmfeed does); fresh stack per replay, replays repeat for the run length",
	},
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Metric is one row of the metric table.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it is a regression (0 on layer metrics).
	Bound float64
	// Layer is the package the metric measures; "" marks an end-to-end
	// metric.
	Layer string
	// On lists the workloads whose traced run measures the metric; a
	// layer metric reads 0 on any other workload. Nil means all.
	On []string
	// Moves names the end-to-end metric the layer metric should move.
	Moves string
	// Exact marks a count that must repeat exactly between two sets of
	// the same tree and seed; compare fails when it does not.
	Exact bool
	// Def is the one-line definition for list and the README.
	Def string
}

const (
	wRobust   = "sweep_robust"
	wWide     = "sweep_wide_pearson"
	wPaced    = "online_paced"
	wSaturate = "online_saturate"
)

var (
	onBatch  = []string{wRobust, wWide}
	onOnline = []string{wPaced, wSaturate}
)

// EndToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the driver's contract), so each has one
// definition per workload kind.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "median of SetupRepeats set-ups before the timed region. batch: config, plan, work dir and a small warm-up sweep through the same Run+merge path; online: generate the day, index its closing quotes, bring listeners, collector and subscriber up"},
	{Name: "pair_param_days_per_s", Unit: "1/s", Better: "higher", Bound: 0.20,
		Def: "universe pairs (before screening) x parameter sets x days / seconds. batch: per job from the sweep.Run call to MergeFiles returning, median over jobs; online: per replay from first Publish to the subscriber's End (1830 x 1 x 1 per replay). The paper's Matlab baseline is 0.5"},
	{Name: "quotes_per_s", Unit: "1/s", Better: "higher", Bound: 0.20,
		Def: "raw quotes consumed / seconds, same intervals: quotes generated inside a batch job, quotes published in an online replay (fixed by the schedule on online_paced)"},
	{Name: "result_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "median time from inputs being due to the result being observable. online: per interval s, last OnSignal with sig.S == s minus the due time of s's closing quote (its send time when unpaced), pooled over replays, each replay's first 100 signal-bearing intervals (cold start) left out; batch: job turnaround. p90 is a layer metric (harness.result_latency_p90_ms): on two shared cores it is bistable"},
	{Name: "cpu_us_per_pair_param_day", Unit: "us", Better: "lower", Bound: 0.20,
		Def: "getrusage user+sys over the timed region / (pairs x parameter sets x days) processed in it; on online_paced wall is fixed by the schedule, so this is its cost metric. The paper's Matlab baseline is 2e6"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Def: "VmHWM over one job or replay, the smallest of the run's: free heap is returned to the OS and VmHWM restarted before each, and garbage the collector had not reached when the host preempted it only ever adds"},
}

func layer(l, name, unit, better string, on []string, moves, def string) Metric {
	return Metric{Name: l + "." + name, Unit: unit, Better: better, Layer: l, On: on, Moves: moves, Def: def}
}

// exact marks a layer metric as a count that repeats exactly.
func exact(m Metric) Metric {
	m.Exact = true
	return m
}

const (
	mThroughput = "pair_param_days_per_s"
	mQuotes     = "quotes_per_s"
	mLatency    = "result_latency_p50_ms"
	mCPU        = "cpu_us_per_pair_param_day"
)

// PerLayer are the single-layer metrics of the traced run. Layer names
// are this repository's packages.
var PerLayer = []Metric{
	// corr, batch use.
	layer("corr", "series_s", "s", "lower", onBatch, mThroughput, "busy seconds inside corr.ComputeSeriesMulti, summed over workers"),
	layer("corr", "series_share", "ratio", "lower", onBatch, mThroughput, "corr.series_s / all traced layer busy seconds (>=0.75 on sweep_robust, <=0.10 on sweep_wide_pearson)"),
	layer("corr", "ns_per_window_robust", "ns", "lower", []string{wRobust}, mThroughput, "busy time of fused Pearson+Maronna+Combined passes / robust windows fitted"),
	layer("corr", "ns_per_window_pearson", "ns", "lower", []string{wWide}, mThroughput, "busy time of Pearson-only passes / (pairs x windows)"),
	exact(layer("corr", "windows", "count", "lower", []string{wRobust}, mThroughput, "robust windows fitted (sweep.RunStats.Warm; repeats exactly)")),
	exact(layer("corr", "warm_hit_frac", "ratio", "higher", []string{wRobust}, mThroughput, "windows solved from the previous window's fit / windows (repeats exactly)")),
	exact(layer("corr", "mean_iters", "count", "lower", []string{wRobust}, mThroughput, "mean fixed-point iterations per window (repeats exactly)")),
	exact(layer("corr", "fallbacks", "count", "lower", []string{wRobust}, mThroughput, "warm runs rerun cold (repeats exactly)")),
	// corr, online use.
	layer("corr", "online_push_ms_p50", "ms", "lower", []string{wPaced}, mLatency+", "+mCPU, "OnlineEngine.Push, 61 stocks, Maronna, over the day's return vectors"),
	layer("corr", "online_push_ms_p99", "ms", "lower", []string{wPaced}, mLatency, "same samples"),
	layer("corr", "online_allocs_per_push", "count", "lower", []string{wPaced}, mCPU, "heap allocations per Push (runtime.MemStats.Mallocs delta)"),
	layer("corr", "online_push_pearson_ms_p50", "ms", "lower", []string{wSaturate}, mQuotes, "same, Pearson: the small share that makes online_saturate bypass corr"),
	layer("corr", "online_cpu_share", "ratio", "lower", onOnline, mCPU, "three engines x pushes x median push time / traced replay CPU seconds (must be lower on online_saturate than on online_paced)"),
	layer("corr", "snapshot_ms", "ms", "lower", []string{wPaced}, "result_latency_p50_ms", "OnlineEngine.Snapshot of a warm 61-stock Maronna engine"),
	layer("corr", "snapshot_bytes", "B", "lower", []string{wPaced}, "peak_rss_mb", "JSON size of that snapshot"),
	layer("supervise", "snapshot_save_ms", "ms", "lower", []string{wPaced}, "result_latency_p50_ms", "supervise.SaveSnapshot of that state to disk (partition processors save every 16 intervals)"),
	layer("supervise", "snapshot_bytes", "B", "lower", []string{wPaced}, "peak_rss_mb", "size of the snapshot file"),
	// market, clean, series, screen.
	layer("market", "generate_day_s", "s", "lower", nil, mThroughput+"; setup_s online", "Generator.GenerateDay busy seconds per day"),
	exact(layer("market", "quotes_per_day", "count", "higher", nil, mQuotes, "raw quotes of the day (repeats exactly)")),
	layer("clean", "batch_ns_per_quote", "ns", "lower", onBatch, mThroughput, "clean.Clean on a day / raw quotes"),
	exact(layer("clean", "reject_frac", "ratio", "lower", nil, mThroughput, "quotes rejected / raw quotes (repeats exactly)")),
	layer("clean", "accept_ns_per_quote", "ns", "lower", onOnline, mQuotes, "Filter.Accept per quote over the day"),
	layer("series", "sample_ns_per_quote", "ns", "lower", onBatch, mThroughput, "Sampler.Add..Finish, Backfill, ReturnGrid / cleaned quotes"),
	layer("series", "bar_ns_per_quote", "ns", "lower", onOnline, mQuotes, "BarAccumulator.Add per cleaned quote (one accumulator per symbol)"),
	layer("screen", "select_s", "s", "lower", []string{wWide}, mThroughput, "screen.Select busy seconds per day"),
	exact(layer("screen", "prune_ratio", "ratio", "higher", []string{wWide}, mThroughput, "pairs pruned / pairs (repeats exactly)")),
	// strategy, backtest.
	layer("strategy", "run_day_us", "us", "lower", onBatch, mThroughput, "strategy.RunDay per (pair, parameter set, day), mean"),
	layer("strategy", "run_day_s", "s", "lower", onBatch, mThroughput, "busy seconds in strategy.RunDay, summed over workers"),
	exact(layer("strategy", "trades", "count", "higher", nil, mThroughput, "trades produced (repeats exactly)")),
	layer("strategy", "step_ns", "ns", "lower", onOnline, mQuotes+", "+mCPU, "Tracker.Step per (pair, matrix) over a recorded Pearson series"),
	layer("backtest", "prepare_day_s", "s", "lower", onBatch, mThroughput, "generate + clean + sample for one day (the sum of those layers; what backtest.PrepareDay costs)"),
	layer("backtest", "trade_returns_s", "s", "lower", onBatch, mThroughput, "busy seconds in backtest.TradeReturns"),
	// sweep, sched, farm.
	layer("sweep", "journal_s", "s", "lower", onBatch, mThroughput, "busy seconds in Journal.Append (encode, CRC, write, fsync every 64)"),
	layer("sweep", "journal_append_us_p50", "us", "lower", onBatch, mThroughput, "median Journal.Append"),
	layer("sweep", "journal_bytes_per_unit", "B", "lower", onBatch, "peak_rss_mb", "journal file size / units"),
	layer("sweep", "open_resume_s", "s", "lower", onBatch, mThroughput, "re-OpenJournal of the finished journal (what a resume pays)"),
	layer("sweep", "merge_s", "s", "lower", onBatch, mThroughput+", peak_rss_mb", "sweep.MergeFiles of the job's journal"),
	exact(layer("sweep", "units", "count", "higher", onBatch, "failed/attempted", "units executed by the untraced reference job (RunStats; repeats exactly)")),
	layer("sweep", "units_failed", "count", "lower", onBatch, "failed/attempted", "units missing from the merge or mismatching the decomposed pass"),
	layer("sweep", "unattributed_frac", "ratio", "lower", onBatch, mThroughput, "1 - (traced layer busy seconds / workers) / untraced job wall: orchestration, sched and idle wait not covered by the decomposed layers"),
	layer("sched", "map_ns_per_task", "ns", "lower", onBatch, mThroughput, "sched.Pool.Map over empty tasks"),
	layer("farm", "loopback_units_per_s", "1/s", "higher", []string{wRobust}, "none (guards ROADMAP item 3)", "the job through farm.NewCoordinator/Serve + 2 farm.RunWorker over a byte-counting loopback listener"),
	layer("farm", "overhead_frac", "ratio", "lower", []string{wRobust}, "none", "farm wall / sweep.Run wall - 1 for the same job"),
	layer("farm", "wire_bytes_per_unit", "B", "lower", []string{wRobust}, "none", "bytes both ways over the listener / units"),
	layer("farm", "workers_joined", "count", "higher", []string{wRobust}, "none", "workers that completed the join handshake"),
	// feed.
	layer("feed", "encode_ns_per_quote", "ns", "lower", onOnline, mQuotes, "Encoder.WriteBatch of 256-quote batches into memory"),
	layer("feed", "decode_ns_per_quote", "ns", "lower", onOnline, mQuotes, "Decoder.Read of the same bytes"),
	layer("feed", "wire_bytes_per_quote", "B", "lower", onOnline, mQuotes, "encoded bytes / quotes"),
	layer("feed", "transit_ms_p50", "ms", "lower", onOnline, mLatency, "closing quote published -> out of the collector"),
	layer("feed", "transit_ms_p99", "ms", "lower", onOnline, mLatency, "same samples"),
	layer("feed", "evictions", "count", "lower", onOnline, mQuotes, "ServerStats.Evicted (retried work)"),
	layer("feed", "reconnects", "count", "lower", onOnline, mQuotes, "CollectorStats.Reconnects"),
	layer("feed", "gaps", "count", "lower", onOnline, "failed/attempted", "CollectorStats.Gaps"),
	layer("feed", "duplicates", "count", "lower", onOnline, mQuotes, "CollectorStats.Duplicates"),
	// engine, core.
	layer("engine", "hop_ns_per_msg", "ns", "lower", onOnline, mQuotes, "3-node pass-through engine.Graph, per message per hop"),
	exact(layer("engine", "msgs_total", "count", "lower", onOnline, mQuotes, "messages into all pipeline nodes (PipelineResult.NodeStats; repeats exactly)")),
	layer("core", "front_ms_p50", "ms", "lower", onOnline, mLatency, "closing quote out of the collector -> ReturnsTap(s) entered (cleaner + bars + TA)"),
	layer("core", "front_ms_p99", "ms", "lower", onOnline, mLatency, "same samples"),
	layer("core", "pipeline_quotes_per_s", "1/s", "higher", onOnline, mQuotes, "core.RunPipeline on a SliceSource: no network, no broker"),
	exact(layer("core", "matrices", "count", "higher", onOnline, "failed/attempted", "PipelineResult.Matrices (repeats exactly)")),
	exact(layer("core", "orders", "count", "higher", onOnline, "failed/attempted", "PipelineResult.Orders (repeats exactly)")),
	exact(layer("core", "trades", "count", "higher", onOnline, "failed/attempted", "trades of the one strategy node (repeats exactly)")),
	// broker.
	layer("broker", "offer_ms_p50", "ms", "lower", onOnline, mLatency+", "+mQuotes, "OfferReturns call duration"),
	layer("broker", "offer_ms_p99", "ms", "lower", onOnline, mLatency, "same samples"),
	layer("broker", "deliver_ms_p50", "ms", "lower", onOnline, mLatency, "OfferReturns(s) returned -> last OnSignal for s (partition engines + log + fan-out + TCP)"),
	layer("broker", "deliver_ms_p99", "ms", "lower", onOnline, mLatency, "same samples"),
	layer("broker", "fanout_signals_per_s", "1/s", "higher", onOnline, mQuotes, "signals delivered / seconds from first to last OnSignal"),
	layer("broker", "partition_skew", "ratio", "lower", onOnline, "result_latency_p50_ms", "largest partition's pairs / mean partition's pairs (the slowest partition sets an interval's time)"),
	exact(layer("broker", "delivered", "count", "higher", onOnline, "failed/attempted", "SubscriberStats.Delivered (repeats exactly)")),
	layer("broker", "duplicates", "count", "lower", onOnline, "failed/attempted", "SubscriberStats.Duplicates"),
	layer("broker", "jumps", "count", "lower", onOnline, "failed/attempted", "SubscriberStats.Jumps"),
	layer("broker", "reconnects", "count", "lower", onOnline, mQuotes, "SubscriberStats.Reconnects"),
	layer("broker", "acks", "count", "lower", onOnline, mQuotes, "SubscriberStats.Acked"),
	// harness.
	layer("harness", "gen_late_ms_p50", "ms", "lower", []string{wPaced}, mLatency, "closing quote's actual publish time minus its due time"),
	layer("harness", "gen_late_ms_p99", "ms", "lower", []string{wPaced}, mLatency, "same samples"),
	layer("harness", "warmup_latency_ms_p50", "ms", "lower", onOnline, "diagnostic", "median latency of a replay's first 100 signal-bearing intervals (cold-start fits and the backlog they leave), which the end-to-end percentiles leave out"),
	layer("harness", "result_latency_p90_ms", "ms", "lower", onOnline, "diagnostic", "p90 of the same samples as result_latency_p50_ms in the traced replay. Not gated: with three engines on two cores a run settles into one of two scheduling regimes, and 5-45% of its intervals take ~18 ms instead of ~10"),
	layer("harness", "result_latency_p99_ms", "ms", "lower", onOnline, "diagnostic", "p99 of the untraced-definition latency samples in the traced replay (~7 samples beyond it per day: diagnostic, not gated)"),
	layer("harness", "result_latency_max_ms", "ms", "lower", onOnline, "diagnostic", "max of the same samples"),
	layer("harness", "late_frac", "ratio", "lower", []string{wPaced}, "diagnostic", "intervals whose latency exceeds one paced interval (30 s / speed)"),
	layer("harness", "alloc_mb", "MB", "lower", nil, "peak_rss_mb", "runtime.MemStats.TotalAlloc delta over the traced region"),
	layer("harness", "gc_cycles", "count", "lower", nil, mCPU, "NumGC delta"),
	layer("harness", "gc_pause_ms_total", "ms", "lower", nil, "result_latency_p50_ms", "PauseTotalNs delta"),
	layer("harness", "trace_overhead_frac", "ratio", "lower", nil, "none", "traced wall / untraced wall - 1 for the same work inside the traced run"),
	layer("harness", "untraced_wall_s", "s", "lower", nil, "none", "wall of the untraced reference job or replay inside the traced run"),
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidName reports whether s is a legal workload or metric name.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// applies reports whether metric m is measured on workload w.
func (m Metric) applies(w string) bool {
	if m.On == nil {
		return true
	}
	for _, n := range m.On {
		if n == w {
			return true
		}
	}
	return false
}

// benchmarkFile is the BENCHMARK.json document.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// BenchmarkJSON renders BENCHMARK.json from the tables above.
func BenchmarkJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "cmd/mmbench/run.sh"}, // ends in `mmbench run "$@"`
		Paths:      []string{"cmd/mmbench", "internal/bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		f.Workloads = append(f.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, m := range EndToEnd {
		f.EndToEnd = append(f.EndToEnd, benchMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range PerLayer {
		f.PerLayer = append(f.PerLayer, benchLayer{m.Name, m.Unit, m.Better})
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: render BENCHMARK.json: %w", err)
	}
	return append(blob, '\n'), nil
}
