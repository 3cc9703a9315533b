// Command mmbenchgate compares a freshly measured BENCH_corr.json
// against the committed baseline and fails loudly when a structural
// performance property regressed. It gates ratios, not absolute
// nanoseconds: wall-clock numbers move with the host, but the fusion
// speedup, the matrix engine's win over the per-pair reference, and
// the warm-start hit rate are properties of the code and should never
// collapse.
//
// It can also gate the BENCH_scaling.json parallel-efficiency curve:
// pass -fresh-scaling/-committed-scaling and every non-oversubscribed
// worker point's efficiency is held to the same min-frac ratio rule.
// Points that cannot be compared (oversubscribed, or absent from the
// committed curve) are reported in a skip summary, and the gate fails
// outright when zero comparable points remain — an all-skip run gated
// nothing and must not pass silently.
//
// v5 schemas add a simd section (the lane-major AVX2 kernel's speedup
// over the scalar batched kernel and the pack overhead share); those
// checks skip when the fresh run dispatched the scalar tier, so
// non-AVX2 hosts still gate everything else. The engine ratios skip
// when the fresh and committed runs used different engine worker
// counts: the per-pair reference and the matrix engine scale
// differently, so their ratio is only comparable at equal workers.
//
// Usage:
//
//	mmbenchgate -fresh /tmp/bench.json -committed BENCH_corr.json
//	mmbenchgate -fresh /tmp/bench.json -committed BENCH_corr.json \
//	    -fresh-scaling /tmp/scaling.json -committed-scaling BENCH_scaling.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// gateReport is the subset of the bench schema the gate reads. Older
// committed baselines (schema v2, no engine section) gate only the
// fields they carry.
type gateReport struct {
	Schema        string  `json:"schema"`
	FusionSpeedup float64 `json:"fusion_speedup"`
	Robust        struct {
		WarmHitFrac float64 `json:"warm_hit_fraction"`
	} `json:"robust"`
	Engine struct {
		Workers        int     `json:"workers"`
		PearsonSpeedup float64 `json:"pearson_speedup"`
		FusedSpeedup   float64 `json:"fused_speedup"`
	} `json:"engine"`
	Batch struct {
		RobustBatchedSpeedup float64 `json:"robust_batched_speedup"`
	} `json:"batch"`
	SIMD struct {
		DispatchTier      string  `json:"dispatch_tier"`
		RobustSIMDSpeedup float64 `json:"robust_simd_speedup"`
		PackOverheadFrac  float64 `json:"pack_overhead_frac"`
	} `json:"simd"`
	Screen struct {
		PruneRatio      float64 `json:"screen_prune_ratio"`
		PipelineSpeedup float64 `json:"pipeline_speedup"`
	} `json:"screen"`
}

// scalingGateReport is the subset of the BENCH_scaling.json schema the
// gate reads.
type scalingGateReport struct {
	Schema string `json:"schema"`
	NumCPU int    `json:"numcpu"`
	Points []struct {
		Workers        int     `json:"workers"`
		Efficiency     float64 `json:"efficiency"`
		Oversubscribed bool    `json:"oversubscribed"`
	} `json:"points"`
}

type gateConfig struct {
	// minFrac is the fraction of a committed speedup the fresh run must
	// retain. Speedups are already host-normalised ratios, but loaded
	// CI machines still jitter them; 0.6 catches a structural collapse
	// (a speedup falling toward 1×) without flaking on noise.
	minFrac float64
	// warmTol is the absolute tolerance on the warm-start hit fraction,
	// which is a near-deterministic property of the data and estimator.
	warmTol float64
}

type check struct {
	name     string
	fresh    float64
	floor    float64
	ceiling  bool // floor is actually an upper bound (cost fractions)
	ok       bool
	skipNote string
}

// gate evaluates every ratio check and returns the results plus
// overall pass/fail.
func gate(fresh, committed *gateReport, cfg gateConfig) ([]check, bool) {
	var checks []check
	// ratio gates f against minFrac of c unless skip names a reason the
	// two are not comparable.
	ratio := func(name string, f, c float64, skip string) {
		ck := check{name: name, fresh: f, floor: cfg.minFrac * c}
		switch {
		case skip != "":
			ck.ok = true
			ck.skipNote = skip
		case c == 0:
			ck.ok = true
			ck.skipNote = "not in committed baseline"
		default:
			ck.ok = f >= ck.floor
		}
		checks = append(checks, ck)
	}

	// The engine ratios compare the matrix engine with the per-pair
	// reference at the run's worker count, and the two scale
	// differently, so a baseline measured at another worker count says
	// nothing about this one.
	var engineSkip string
	if fresh.Engine.Workers != committed.Engine.Workers {
		engineSkip = fmt.Sprintf("engine.workers %d, committed %d", fresh.Engine.Workers, committed.Engine.Workers)
	}
	// The SIMD kernel speedup compares the vector tier against the
	// scalar batched kernel inside the fresh run. A host that
	// dispatched scalar measures ≈1.0 by construction — that is the
	// fallback working, not a regression — so the simd section is gated
	// only when the fresh run actually ran the vector tier.
	var simdSkip string
	if fresh.SIMD.DispatchTier != "" && fresh.SIMD.DispatchTier != "avx2" {
		simdSkip = "fresh run dispatched " + fresh.SIMD.DispatchTier
	}

	ratio("fusion_speedup", fresh.FusionSpeedup, committed.FusionSpeedup, "")
	ratio("engine.pearson_speedup", fresh.Engine.PearsonSpeedup, committed.Engine.PearsonSpeedup, engineSkip)
	ratio("engine.fused_speedup", fresh.Engine.FusedSpeedup, committed.Engine.FusedSpeedup, engineSkip)
	ratio("batch.robust_batched_speedup", fresh.Batch.RobustBatchedSpeedup, committed.Batch.RobustBatchedSpeedup, "")
	ratio("screen.screen_prune_ratio", fresh.Screen.PruneRatio, committed.Screen.PruneRatio, "")
	ratio("screen.pipeline_speedup", fresh.Screen.PipelineSpeedup, committed.Screen.PipelineSpeedup, "")
	ratio("simd.robust_simd_speedup", fresh.SIMD.RobustSIMDSpeedup, committed.SIMD.RobustSIMDSpeedup, simdSkip)

	// Pack overhead is a cost fraction, so it gates as a ceiling: the
	// transpose share of vector batch time must not balloon past the
	// committed share by more than the 1/minFrac jitter allowance.
	pack := check{
		name:    "simd.pack_overhead_frac",
		fresh:   fresh.SIMD.PackOverheadFrac,
		floor:   committed.SIMD.PackOverheadFrac / cfg.minFrac,
		ceiling: true,
	}
	switch {
	case simdSkip != "":
		pack.ok = true
		pack.skipNote = simdSkip
	case committed.SIMD.PackOverheadFrac == 0:
		pack.ok = true
		pack.skipNote = "not in committed baseline"
	default:
		pack.ok = pack.fresh <= pack.floor
	}
	checks = append(checks, pack)

	wh := check{
		name:  "robust.warm_hit_fraction",
		fresh: fresh.Robust.WarmHitFrac,
		floor: committed.Robust.WarmHitFrac - cfg.warmTol,
	}
	if committed.Robust.WarmHitFrac == 0 {
		wh.ok = true
		wh.skipNote = "not in committed baseline"
	} else {
		wh.ok = wh.fresh >= wh.floor
	}
	checks = append(checks, wh)

	pass := true
	for _, c := range checks {
		pass = pass && c.ok
	}
	return checks, pass
}

// gateScaling holds each fresh non-oversubscribed worker point's
// parallel efficiency to minFrac of the committed curve's efficiency
// at the same worker count. Oversubscribed points (workers > NumCPU)
// measure scheduler behaviour, not hardware scaling, and are skipped;
// so are worker counts absent from the committed curve (host with a
// different core count, or an older doubling-subsampled baseline).
// Alongside the checks it returns how many points were actually
// compared: a run where every point skipped gated nothing, and the
// caller must fail rather than report a hollow PASS.
func gateScaling(fresh, committed *scalingGateReport, cfg gateConfig) (checks []check, comparable, skipped int) {
	byWorkers := make(map[int]float64)
	for _, p := range committed.Points {
		if !p.Oversubscribed {
			byWorkers[p.Workers] = p.Efficiency
		}
	}
	for _, p := range fresh.Points {
		ck := check{
			name:  fmt.Sprintf("scaling.efficiency[w=%d]", p.Workers),
			fresh: p.Efficiency,
		}
		c, inBaseline := byWorkers[p.Workers]
		switch {
		case p.Oversubscribed:
			ck.ok = true
			ck.skipNote = "oversubscribed (workers > numcpu)"
		case !inBaseline || c == 0:
			ck.ok = true
			ck.skipNote = "not in committed baseline"
		default:
			ck.floor = cfg.minFrac * c
			ck.ok = ck.fresh >= ck.floor
		}
		if ck.skipNote != "" {
			skipped++
		} else {
			comparable++
		}
		checks = append(checks, ck)
	}
	return checks, comparable, skipped
}

func load(path string) (*gateReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r gateReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func loadScaling(path string) (*scalingGateReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r scalingGateReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printChecks renders check lines and folds their verdicts into pass.
func printChecks(checks []check, pass bool) bool {
	for _, c := range checks {
		rel, relFail := ">=", "< "
		if c.ceiling {
			rel, relFail = "<=", "> "
		}
		switch {
		case c.skipNote != "":
			fmt.Printf("  SKIP %-30s %s\n", c.name, c.skipNote)
		case c.ok:
			fmt.Printf("  PASS %-30s %.4g %s bound %.4g\n", c.name, c.fresh, rel, c.floor)
		default:
			fmt.Printf("  FAIL %-30s %.4g %s bound %.4g\n", c.name, c.fresh, relFail, c.floor)
		}
		pass = pass && c.ok
	}
	return pass
}

func main() {
	var (
		freshPath        = flag.String("fresh", "", "freshly measured bench JSON")
		committedPath    = flag.String("committed", "BENCH_corr.json", "committed baseline bench JSON")
		freshScaling     = flag.String("fresh-scaling", "", "freshly measured scaling JSON (optional)")
		committedScaling = flag.String("committed-scaling", "BENCH_scaling.json", "committed baseline scaling JSON")
		minFrac          = flag.Float64("min-frac", 0.6, "fraction of each committed speedup/efficiency the fresh run must retain")
		warmTol          = flag.Float64("warm-tol", 0.02, "absolute tolerance on the warm-start hit fraction")
	)
	flag.Parse()
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "mmbenchgate: -fresh is required")
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbenchgate:", err)
		os.Exit(2)
	}
	committed, err := load(*committedPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbenchgate:", err)
		os.Exit(2)
	}

	cfg := gateConfig{minFrac: *minFrac, warmTol: *warmTol}
	checks, pass := gate(fresh, committed, cfg)
	fmt.Printf("bench gate: fresh %s (%s) vs committed %s (%s)\n",
		*freshPath, fresh.Schema, *committedPath, committed.Schema)
	pass = printChecks(checks, pass)

	if *freshScaling != "" {
		fs, err := loadScaling(*freshScaling)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmbenchgate:", err)
			os.Exit(2)
		}
		cs, err := loadScaling(*committedScaling)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmbenchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("scaling gate: fresh %s (%s, numcpu %d) vs committed %s (%s, numcpu %d)\n",
			*freshScaling, fs.Schema, fs.NumCPU, *committedScaling, cs.Schema, cs.NumCPU)
		scChecks, comparable, skipped := gateScaling(fs, cs, cfg)
		pass = printChecks(scChecks, pass)
		fmt.Printf("  %d scaling point(s) compared, %d skipped (oversubscribed/missing)\n", comparable, skipped)
		if comparable == 0 {
			fmt.Println("  FAIL scaling: zero comparable points — the curve was not gated at all")
			pass = false
		}
	}

	if !pass {
		fmt.Println("bench gate: FAIL — a structural performance property regressed")
		os.Exit(1)
	}
	fmt.Println("bench gate: PASS")
}
