package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/screen"
)

// benchWindowM is the window length used for the per-window kernel
// benchmarks. It matches the paper grid's dominant M and the
// BenchmarkCorrelationWindow suite in bench_test.go so numbers are
// directly comparable.
const benchWindowM = 100

type windowBench struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type robustReport struct {
	Windows     int     `json:"windows"`
	WarmHits    int     `json:"warm_hits"`
	ColdStarts  int     `json:"cold_starts"`
	Fallbacks   int     `json:"fallbacks"`
	WarmHitFrac float64 `json:"warm_hit_fraction"`
	MeanIters   float64 `json:"mean_iterations"`
	IterHist    []int   `json:"iteration_histogram"`
}

type sweepReport struct {
	FarmSeconds       float64 `json:"farm_seconds"`
	IntegratedSeconds float64 `json:"integrated_seconds"`
	Trades            int64   `json:"trades"`
}

// engineReport compares the matrix-level engine (shared per-stock
// moments + cache tiles + work stealing) against the per-pair
// reference at the same worker count, so the structural win is isolated
// from parallel speedup.
type engineReport struct {
	Workers  int `json:"workers"`
	TileSize int `json:"tile_size"`
	// Whole-day Pearson pass, all pairs — the moment-sharing headline.
	PearsonDayNs    int64   `json:"pearson_day_ns"`
	PearsonDayRefNs int64   `json:"pearson_day_reference_ns"`
	PearsonSpeedup  float64 `json:"pearson_speedup"`
	// Whole-day fused Maronna+Combined pass, all pairs.
	FusedDayNs    int64   `json:"fused_day_ns"`
	FusedDayRefNs int64   `json:"fused_day_reference_ns"`
	FusedSpeedup  float64 `json:"fused_speedup"`
}

// batchReport isolates the batched SoA robust kernel: the whole-day
// fused robust pass at one worker, batched versus the frozen per-pair
// reference. The batch numbers are deliberately single-threaded so the
// structural win is not conflated with parallel speedup. The passes
// are µop-throughput-bound scalar loops (see DESIGN.md §8), so the
// honest batch win is modest; the ≥2× day-level headline comes from
// the screened pipeline below.
type batchReport struct {
	// Whole-day fused Maronna+Combined pass, 1 worker.
	FusedDayNs           int64   `json:"fused_day_ns"`
	FusedDayRefNs        int64   `json:"fused_day_reference_ns"`
	RobustBatchedSpeedup float64 `json:"robust_batched_speedup"`
	// Batch occupancy telemetry from one exact-path day.
	BatchSweeps     int     `json:"batch_sweeps"`
	MeanActiveLanes float64 `json:"mean_active_lanes"`
}

// simdReport isolates the lane-major AVX2 backend: the same
// single-threaded batched fused day as the batch section, with the
// vector kernels on, against the scalar batched kernel (batch section
// numbers, which stay pinned to DisableSIMD for cross-version
// comparability). PackOverheadFrac is the fraction of vector batch
// wall-clock spent transposing windows into the lane-major tiles,
// from the SetSIMDProfiling telemetry.
type simdReport struct {
	// DispatchTier is the tier actually used for these numbers. On a
	// host without AVX2 it is scalar, RobustSIMDSpeedup is ≈1.0 by
	// construction, and the gate skips it.
	DispatchTier string `json:"dispatch_tier"`
	// Whole-day fused Maronna+Combined pass, 1 worker, vector kernels.
	RobustSIMDDayNs   int64   `json:"robust_simd_day_ns"`
	RobustSIMDSpeedup float64 `json:"robust_simd_speedup"`
	// Transpose cost share of the vector batch runs.
	PackOverheadFrac float64 `json:"pack_overhead_frac"`
}

// screenReport measures the SSD pre-screening stage and the full
// screened pipeline: screen the triangle, then run the batched fused
// pass over the survivors (vector kernels included — the pipeline is
// the best-available configuration). PipelineSpeedup
// versus the unscreened per-pair reference is the day-level headline.
type screenReport struct {
	TopFrac         float64 `json:"top_frac"`
	PairsTotal      int     `json:"pairs_total"`
	PairsKept       int     `json:"pairs_kept"`
	PruneRatio      float64 `json:"screen_prune_ratio"`
	SelectNs        int64   `json:"select_ns"`
	PipelineDayNs   int64   `json:"pipeline_day_ns"`
	PipelineSpeedup float64 `json:"pipeline_speedup"`
}

// benchReport is the BENCH_corr.json schema: per-window kernel costs
// (cold, warm-started, and fused two-treatment), whole-day series
// throughput, warm-start statistics, and the end-to-end approach
// comparison wall times measured by the surrounding mmscale run.
type benchReport struct {
	Schema string `json:"schema"`
	// Environment the numbers were measured in. GOMAXPROCS is the value
	// actually in effect during the run, not the flag that was asked
	// for; CPUModel and GitRevision are best-effort ("" when
	// undiscoverable).
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model,omitempty"`
	GitRevision string `json:"git_revision,omitempty"`
	WindowM     int    `json:"window_m"`

	// Cold per-window cost with scratch reuse (median/MAD init every
	// window), keyed by correlation type.
	ColdWindow map[string]windowBench `json:"cold_window"`
	// Steady-state warm-started sliding Maronna window — the engine's
	// actual per-window path.
	WarmWindowMaronna windowBench `json:"warm_window_maronna"`
	// Both treatments computed as independent estimations per window
	// (warm Maronna chain plus a separate Combined estimation) — the
	// pre-fusion engine's cost and the baseline for the fused number.
	UnfusedWindowBothTreatments windowBench `json:"unfused_window_both_treatments"`
	// One warm-started fit serving both the Maronna and Combined
	// treatments (the fused engine's unit of work).
	FusedWindowBothTreatments windowBench `json:"fused_window_both_treatments"`
	// Unfused / fused ns ratio, so the fusion win reads straight off
	// the report.
	FusionSpeedup float64 `json:"fusion_speedup"`

	// Whole-day parallel series cost, in ns per (pair, window), keyed
	// by correlation type, plus the fused Maronna+Combined pass.
	SeriesNsPerWindow      map[string]float64 `json:"series_ns_per_window"`
	SeriesFusedNsPerWindow float64            `json:"series_fused_maronna_combined_ns_per_window"`

	Robust robustReport `json:"robust"`
	Engine engineReport `json:"engine"`
	Batch  batchReport  `json:"batch"`
	SIMD   simdReport   `json:"simd"`
	Screen screenReport `json:"screen"`
	Sweep  sweepReport  `json:"sweep"`
}

// benchScreenTopFrac is the canonical screening setting of the bench
// pipeline: keep the closest half of the pair triangle. The sweep-level
// recall gate (TestScreenedSweepRecall) validates this fraction retains
// ≥95% of trade PnL on the seed universe.
const benchScreenTopFrac = 0.5

// dayBenchMin runs a whole-day benchmark n times and keeps the fastest
// ns/op: on shared single-core hosts individual testing.Benchmark runs
// jitter by ±10–30%, and the minimum is the stable estimator of the
// true cost.
func dayBenchMin(n int, f func() error) int64 {
	best := int64(0)
	for i := 0; i < n; i++ {
		ns := testing.Benchmark(func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// measureBatchAndScreen fills the batch and screen sections: the
// single-threaded batched fused-day numbers against the frozen
// per-pair reference, and the screened pipeline headline.
func measureBatchAndScreen(rep *benchReport, dd *backtest.DayData) error {
	fusedTypes := []corr.Type{corr.Maronna, corr.Combined}
	// The batch section is pinned to the scalar tier so its ratios keep
	// measuring the structural batching win and stay comparable across
	// versions and hosts; the vector kernels are isolated separately in
	// the simd section.
	ec1 := corr.EngineConfig{M: benchWindowM, Workers: 1, DisableSIMD: true}
	const reps = 3

	rep.Batch.FusedDayRefNs = dayBenchMin(reps, func() error {
		_, err := corr.ComputeSeriesMultiReference(ec1, fusedTypes, dd.Returns)
		return err
	})
	rep.Batch.FusedDayNs = dayBenchMin(reps, func() error {
		_, err := corr.ComputeSeriesMulti(ec1, fusedTypes, dd.Returns)
		return err
	})
	if rep.Batch.FusedDayNs > 0 {
		rep.Batch.RobustBatchedSpeedup = float64(rep.Batch.FusedDayRefNs) / float64(rep.Batch.FusedDayNs)
	}

	// Batch telemetry from one run.
	exact, err := corr.ComputeSeriesMulti(ec1, fusedTypes, dd.Returns)
	if err != nil {
		return err
	}
	if st := exact[0].Robust; st != nil {
		rep.Batch.BatchSweeps = st.BatchSweeps
		rep.Batch.MeanActiveLanes = st.MeanActiveLanes()
	}

	// Screened pipeline: prune the triangle, then run the batched fused
	// pass over the survivors. The speedup is measured
	// against the unscreened per-pair reference — the day-level cost an
	// operator actually avoids.
	scfg := screen.Config{TopFrac: benchScreenTopFrac, MinKeep: 1}
	keep, sst, err := screen.Select(scfg, dd.Returns)
	if err != nil {
		return err
	}
	rep.Screen.TopFrac = benchScreenTopFrac
	rep.Screen.PairsTotal = sst.PairsTotal
	rep.Screen.PairsKept = sst.PairsKept
	rep.Screen.PruneRatio = sst.PruneRatio()
	rep.Screen.SelectNs = dayBenchMin(reps, func() error {
		_, _, err := screen.Select(scfg, dd.Returns)
		return err
	})
	ecPipe := ec1
	ecPipe.DisableSIMD = false // pipeline runs the best available tier
	ecPipe.Pairs = keep
	rep.Screen.PipelineDayNs = dayBenchMin(reps, func() error {
		if _, _, err := screen.Select(scfg, dd.Returns); err != nil {
			return err
		}
		_, err := corr.ComputeSeriesMulti(ecPipe, fusedTypes, dd.Returns)
		return err
	})
	if rep.Screen.PipelineDayNs > 0 {
		rep.Screen.PipelineSpeedup = float64(rep.Batch.FusedDayRefNs) / float64(rep.Screen.PipelineDayNs)
	}
	return nil
}

// measureSIMD fills the simd section: the batched fused day with the
// vector kernels on, against the scalar-tier batch numbers measured
// above, and the transpose (pack) share of vector batch time. On hosts
// without AVX2 both tiers run scalar: the speedup comes out ≈1.0 and
// the gate skips it by the dispatch_tier field.
func measureSIMD(rep *benchReport, dd *backtest.DayData) error {
	rep.SIMD.DispatchTier = corr.SIMDTier()

	fusedTypes := []corr.Type{corr.Maronna, corr.Combined}
	ec1 := corr.EngineConfig{M: benchWindowM, Workers: 1}
	const reps = 3

	rep.SIMD.RobustSIMDDayNs = dayBenchMin(reps, func() error {
		_, err := corr.ComputeSeriesMulti(ec1, fusedTypes, dd.Returns)
		return err
	})
	if rep.SIMD.RobustSIMDDayNs > 0 {
		rep.SIMD.RobustSIMDSpeedup = float64(rep.Batch.FusedDayNs) / float64(rep.SIMD.RobustSIMDDayNs)
	}

	// Pack overhead from one profiled run.
	corr.SetSIMDProfiling(true)
	defer corr.SetSIMDProfiling(false)
	css, err := corr.ComputeSeriesMulti(ec1, fusedTypes, dd.Returns)
	if err != nil {
		return err
	}
	if st := css[0].Robust; st != nil {
		if total := st.SIMDPackNs + st.SIMDRunNs; total > 0 {
			rep.SIMD.PackOverheadFrac = float64(st.SIMDPackNs) / float64(total)
		}
	}
	return nil
}

func benchNs(f func(b *testing.B)) windowBench {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	return windowBench{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// writeBenchJSON runs the correlation kernel benchmark suite on the
// already-prepared day and writes the machine-readable report.
func writeBenchJSON(path string, dd *backtest.DayData, workers int, sweep sweepReport) error {
	x, y := dd.Returns[0], dd.Returns[1]
	if len(x) <= benchWindowM {
		return fmt.Errorf("day too short for bench: %d returns, window %d", len(x), benchWindowM)
	}
	steps := len(x) - benchWindowM

	rep := benchReport{
		Schema:            "marketminer/bench_corr/v6",
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		CPUModel:          cpuModel(),
		GitRevision:       gitRevision(),
		WindowM:           benchWindowM,
		ColdWindow:        make(map[string]windowBench),
		SeriesNsPerWindow: make(map[string]float64),
		Sweep:             sweep,
	}

	est := corr.NewMaronnaEstimator(corr.DefaultMaronnaConfig())
	cest := corr.NewCombinedEstimator(corr.DefaultMaronnaConfig())
	var sink float64
	var sc *corr.Scratch

	// Every window bench slides through the same day so cold and warm
	// numbers average over identical regimes (including breakdowns).
	rep.ColdWindow[corr.Pearson.String()] = benchNs(func(b *testing.B) {
		t := 0
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			sink = corr.PearsonCorr(x[t:t+benchWindowM], y[t:t+benchWindowM])
		}
	})
	rep.ColdWindow[corr.Maronna.String()] = benchNs(func(b *testing.B) {
		t := 0
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			sink, sc = est.CorrScratch(x[t:t+benchWindowM], y[t:t+benchWindowM], sc)
		}
	})
	rep.ColdWindow[corr.Combined.String()] = benchNs(func(b *testing.B) {
		t := 0
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			sink, sc = cest.CorrScratch(x[t:t+benchWindowM], y[t:t+benchWindowM], sc)
		}
	})

	rep.WarmWindowMaronna = benchNs(func(b *testing.B) {
		var warm corr.Fit
		warm, sc = est.FitScratch(x[:benchWindowM], y[:benchWindowM], sc, nil)
		t := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			warm, sc = est.FitScratch(x[t:t+benchWindowM], y[t:t+benchWindowM], sc, &warm)
			sink = warm.Rho
		}
	})
	rep.UnfusedWindowBothTreatments = benchNs(func(b *testing.B) {
		var warm corr.Fit
		warm, sc = est.FitScratch(x[:benchWindowM], y[:benchWindowM], sc, nil)
		t := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			warm, sc = est.FitScratch(x[t:t+benchWindowM], y[t:t+benchWindowM], sc, &warm)
			sink, sc = cest.CorrScratch(x[t:t+benchWindowM], y[t:t+benchWindowM], sc)
		}
	})
	rep.FusedWindowBothTreatments = benchNs(func(b *testing.B) {
		var warm corr.Fit
		warm, sc = est.FitScratch(x[:benchWindowM], y[:benchWindowM], sc, nil)
		t := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = (t + 1) % steps
			warm, sc = est.FitScratch(x[t:t+benchWindowM], y[t:t+benchWindowM], sc, &warm)
			sink = corr.CombinedFromFit(x[t:t+benchWindowM], y[t:t+benchWindowM], warm.Rho, sc.Weights())
		}
	})
	if f := rep.FusedWindowBothTreatments.NsPerOp; f > 0 {
		rep.FusionSpeedup = float64(rep.UnfusedWindowBothTreatments.NsPerOp) / float64(f)
	}
	_ = sink

	ecfg := corr.EngineConfig{M: benchWindowM, Workers: workers}
	for _, ct := range corr.Types() {
		ecfg.Type = ct
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cs, err := corr.ComputeSeries(ecfg, dd.Returns)
				if err != nil {
					b.Fatal(err)
				}
				windows := len(cs.Pairs) * cs.Len()
				if windows == 0 {
					b.Fatal("empty series")
				}
			}
		})
		cs, err := corr.ComputeSeries(ecfg, dd.Returns)
		if err != nil {
			return err
		}
		rep.SeriesNsPerWindow[ct.String()] = float64(r.NsPerOp()) / float64(len(cs.Pairs)*cs.Len())
	}

	fusedTypes := []corr.Type{corr.Maronna, corr.Combined}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corr.ComputeSeriesMulti(ecfg, fusedTypes, dd.Returns); err != nil {
				b.Fatal(err)
			}
		}
	})
	css, err := corr.ComputeSeriesMulti(ecfg, fusedTypes, dd.Returns)
	if err != nil {
		return err
	}
	// Per treatment-window: the fused pass fills two series per fit.
	totalWindows := len(fusedTypes) * len(css[0].Pairs) * css[0].Len()
	rep.SeriesFusedNsPerWindow = float64(r.NsPerOp()) / float64(totalWindows)

	if st := css[0].Robust; st != nil {
		rep.Robust = robustReport{
			Windows:     st.Windows,
			WarmHits:    st.WarmHits,
			ColdStarts:  st.ColdStarts,
			Fallbacks:   st.Fallbacks,
			WarmHitFrac: float64(st.WarmHits) / float64(st.Windows),
			MeanIters:   st.MeanIters(),
			IterHist:    st.IterHist,
		}
	}

	// Matrix engine vs per-pair reference at equal worker count: the
	// structural (sharing + tiling) win, not the parallel one.
	engineWorkers := workers
	if engineWorkers <= 0 {
		engineWorkers = runtime.GOMAXPROCS(0)
	}
	rep.Engine = engineReport{Workers: engineWorkers, TileSize: corr.DefaultTileSize}
	dayBench := func(f func() error) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	pearsonTypes := []corr.Type{corr.Pearson}
	rep.Engine.PearsonDayNs = dayBench(func() error {
		_, err := corr.ComputeSeriesMulti(ecfg, pearsonTypes, dd.Returns)
		return err
	})
	rep.Engine.PearsonDayRefNs = dayBench(func() error {
		_, err := corr.ComputeSeriesMultiReference(ecfg, pearsonTypes, dd.Returns)
		return err
	})
	rep.Engine.FusedDayNs = dayBench(func() error {
		_, err := corr.ComputeSeriesMulti(ecfg, fusedTypes, dd.Returns)
		return err
	})
	rep.Engine.FusedDayRefNs = dayBench(func() error {
		_, err := corr.ComputeSeriesMultiReference(ecfg, fusedTypes, dd.Returns)
		return err
	})
	if rep.Engine.PearsonDayNs > 0 {
		rep.Engine.PearsonSpeedup = float64(rep.Engine.PearsonDayRefNs) / float64(rep.Engine.PearsonDayNs)
	}
	if rep.Engine.FusedDayNs > 0 {
		rep.Engine.FusedSpeedup = float64(rep.Engine.FusedDayRefNs) / float64(rep.Engine.FusedDayNs)
	}

	if err := measureBatchAndScreen(&rep, dd); err != nil {
		return err
	}
	if err := measureSIMD(&rep, dd); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
