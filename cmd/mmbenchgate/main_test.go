package main

import "testing"

func report(fusion, warm, pearson, fused float64) *gateReport {
	var r gateReport
	r.FusionSpeedup = fusion
	r.Robust.WarmHitFrac = warm
	r.Engine.PearsonSpeedup = pearson
	r.Engine.FusedSpeedup = fused
	return &r
}

// fullReport extends report with the v4 batch and screen sections.
func fullReport(fusion, warm, pearson, fused, batched, prune, pipeline float64) *gateReport {
	r := report(fusion, warm, pearson, fused)
	r.Batch.RobustBatchedSpeedup = batched
	r.Screen.PruneRatio = prune
	r.Screen.PipelineSpeedup = pipeline
	return r
}

var cfg = gateConfig{minFrac: 0.6, warmTol: 0.02}

func TestGatePassesWithinTolerance(t *testing.T) {
	committed := report(2.9, 0.998, 1.8, 1.1)
	// Fresh run somewhat slower but structurally intact.
	fresh := report(2.0, 0.990, 1.3, 0.9)
	checks, pass := gate(fresh, committed, cfg)
	if !pass {
		t.Fatalf("gate failed on tolerable drift: %+v", checks)
	}
}

func TestGateFailsOnFusionCollapse(t *testing.T) {
	committed := report(2.9, 0.998, 1.8, 1.1)
	fresh := report(1.0, 0.998, 1.8, 1.1) // fusion win gone
	checks, pass := gate(fresh, committed, cfg)
	if pass {
		t.Fatal("gate passed a fusion-speedup collapse")
	}
	for _, c := range checks {
		if c.name == "fusion_speedup" && c.ok {
			t.Fatal("fusion_speedup check did not fail")
		}
	}
}

func TestGateFailsOnWarmHitDrop(t *testing.T) {
	committed := report(2.9, 0.998, 1.8, 1.1)
	fresh := report(2.9, 0.90, 1.8, 1.1) // warm chain broken
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("gate passed a warm-hit-fraction drop")
	}
}

func TestGateFailsOnEngineRegression(t *testing.T) {
	committed := report(2.9, 0.998, 1.8, 1.1)
	fresh := report(2.9, 0.998, 0.9, 1.1) // matrix engine now slower than reference
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("gate passed a matrix-engine regression")
	}
}

func TestGateSkipsFieldsAbsentFromBaseline(t *testing.T) {
	// A v2 baseline carries no engine section; those checks must skip,
	// not fail, so the gate works across a schema upgrade. The same
	// applies to a v3 baseline with no batch/screen sections.
	committed := report(2.9, 0.998, 0, 0)
	fresh := report(2.9, 0.998, 1.8, 1.1)
	checks, pass := gate(fresh, committed, cfg)
	if !pass {
		t.Fatalf("gate failed against a v2 baseline: %+v", checks)
	}
	skips := 0
	for _, c := range checks {
		if c.skipNote != "" {
			skips++
		}
	}
	// engine pearson+fused, batch batched, screen prune+pipeline, and
	// the two simd checks (section absent from both reports).
	if skips != 7 {
		t.Fatalf("%d checks skipped, want 7: %+v", skips, checks)
	}
}

func TestGateFailsOnBatchedSpeedupCollapse(t *testing.T) {
	committed := fullReport(2.9, 0.998, 1.8, 1.1, 1.1, 0.5, 2.2)
	fresh := fullReport(2.9, 0.998, 1.8, 1.1, 0.5, 0.5, 2.2)
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("gate passed a robust_batched_speedup collapse")
	}
}

func TestGateFailsOnPruneRatioCollapse(t *testing.T) {
	committed := fullReport(2.9, 0.998, 1.8, 1.1, 1.1, 0.5, 2.2)
	fresh := fullReport(2.9, 0.998, 1.8, 1.1, 1.1, 0.1, 2.2)
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("gate passed a screen_prune_ratio collapse")
	}
}

func TestGateFailsOnPipelineSpeedupCollapse(t *testing.T) {
	committed := fullReport(2.9, 0.998, 1.8, 1.1, 1.1, 0.5, 2.2)
	fresh := fullReport(2.9, 0.998, 1.8, 1.1, 1.1, 0.5, 1.0)
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("gate passed a pipeline_speedup collapse")
	}
}

// TestGateSkipsEngineOnWorkerMismatch: the engine ratios are measured
// at the run's worker count, so a fresh run at a different count than
// the baseline must skip them — neither pass nor fail — while every
// other check still gates.
func TestGateSkipsEngineOnWorkerMismatch(t *testing.T) {
	committed := report(2.9, 0.998, 1.8, 1.1)
	committed.Engine.Workers = 1
	fresh := report(2.9, 0.998, 0.7, 0.5) // would fail at equal workers
	fresh.Engine.Workers = 2
	checks, pass := gate(fresh, committed, cfg)
	if !pass {
		t.Fatalf("gate failed on engine ratios measured at different worker counts: %+v", checks)
	}
	for _, c := range checks {
		if (c.name == "engine.pearson_speedup" || c.name == "engine.fused_speedup") && c.skipNote == "" {
			t.Fatalf("%s was gated across a worker-count mismatch: %+v", c.name, c)
		}
	}

	fresh.Engine.Workers = 1
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("gate passed an engine regression at equal worker counts")
	}
	fresh.FusionSpeedup = 1.0
	fresh.Engine.Workers = 2
	if _, pass := gate(fresh, committed, cfg); pass {
		t.Fatal("worker-count skip also suppressed the fusion_speedup check")
	}
}

// simdReportFix extends fullReport with a v5 simd section.
func simdReportFix(tier string, robust, packFrac float64) *gateReport {
	r := fullReport(2.9, 0.998, 1.8, 1.1, 1.1, 0.5, 2.2)
	r.SIMD.DispatchTier = tier
	r.SIMD.RobustSIMDSpeedup = robust
	r.SIMD.PackOverheadFrac = packFrac
	return r
}

func TestGateFailsOnSIMDSpeedupCollapse(t *testing.T) {
	committed := simdReportFix("avx2", 1.9, 0.01)
	fresh := simdReportFix("avx2", 1.0, 0.01) // vector win gone
	checks, pass := gate(fresh, committed, cfg)
	if pass {
		t.Fatal("gate passed a robust_simd_speedup collapse")
	}
	for _, c := range checks {
		if c.name == "simd.robust_simd_speedup" && c.ok {
			t.Fatal("robust_simd_speedup check did not fail")
		}
	}
}

func TestGateSkipsSIMDOnScalarDispatch(t *testing.T) {
	// A host without AVX2 measures speedups ≈1.0 against an avx2
	// baseline: that is the fallback working, and the gate must skip
	// the simd ratios rather than fail them.
	committed := simdReportFix("avx2", 1.9, 0.01)
	fresh := simdReportFix("scalar", 1.0, 0)
	checks, pass := gate(fresh, committed, cfg)
	if !pass {
		t.Fatalf("gate failed a scalar-dispatch fresh run: %+v", checks)
	}
	for _, c := range checks {
		if c.name == "simd.robust_simd_speedup" && c.skipNote == "" {
			t.Fatalf("robust_simd_speedup was gated on a scalar host: %+v", c)
		}
	}
}

func TestGateFailsOnPackOverheadBlowup(t *testing.T) {
	committed := simdReportFix("avx2", 1.9, 0.02)
	fresh := simdReportFix("avx2", 1.9, 0.30) // transpose cost ballooned
	checks, pass := gate(fresh, committed, cfg)
	if pass {
		t.Fatal("gate passed a pack-overhead blowup")
	}
	for _, c := range checks {
		if c.name == "simd.pack_overhead_frac" && c.ok {
			t.Fatal("pack_overhead_frac check did not fail")
		}
	}
}

func scalingFixture(numCPU int, effs []float64, oversub []bool) *scalingGateReport {
	r := &scalingGateReport{Schema: "marketminer/bench_scaling/v2", NumCPU: numCPU}
	for i, e := range effs {
		r.Points = append(r.Points, struct {
			Workers        int     `json:"workers"`
			Efficiency     float64 `json:"efficiency"`
			Oversubscribed bool    `json:"oversubscribed"`
		}{Workers: i + 1, Efficiency: e, Oversubscribed: oversub[i]})
	}
	return r
}

func TestGateScalingSkipsOversubscribedAndMissing(t *testing.T) {
	committed := scalingFixture(2, []float64{1.0, 0.9}, []bool{false, false})
	// Fresh host has 2 real cores and two oversubscribed tail points
	// whose efficiency is necessarily poor; points 3-4 are absent from
	// the committed curve anyway.
	fresh := scalingFixture(2, []float64{1.0, 0.85, 0.4, 0.3}, []bool{false, false, true, true})
	checks, comparable, skipped := gateScaling(fresh, committed, cfg)
	printableOK(t, checks)
	if n := len(checks); n != 4 {
		t.Fatalf("%d checks, want 4", n)
	}
	if comparable != 2 || skipped != 2 {
		t.Fatalf("comparable=%d skipped=%d, want 2/2", comparable, skipped)
	}
	for _, c := range checks[2:] {
		if c.skipNote == "" {
			t.Fatalf("oversubscribed point %s was gated: %+v", c.name, c)
		}
	}
}

// TestGateScalingCountsZeroComparable pins the hollow-PASS fix: a fresh
// curve whose every point is oversubscribed or missing from the
// baseline must report zero comparable points, so main can fail instead
// of printing PASS over an ungated curve.
func TestGateScalingCountsZeroComparable(t *testing.T) {
	committed := scalingFixture(2, []float64{1.0, 0.9}, []bool{false, false})
	// Every fresh point is either oversubscribed or at a worker count
	// the committed curve lacks.
	fresh := scalingFixture(8, []float64{0, 0, 0.7, 0.6}, []bool{true, true, false, false})
	fresh.Points[0].Workers = 9
	fresh.Points[1].Workers = 10
	fresh.Points[2].Workers = 3
	fresh.Points[3].Workers = 4
	checks, comparable, skipped := gateScaling(fresh, committed, cfg)
	if comparable != 0 || skipped != len(checks) {
		t.Fatalf("comparable=%d skipped=%d (of %d), want 0/%d", comparable, skipped, len(checks), len(checks))
	}
}

func TestGateScalingFailsOnEfficiencyCollapse(t *testing.T) {
	committed := scalingFixture(2, []float64{1.0, 0.9}, []bool{false, false})
	fresh := scalingFixture(2, []float64{1.0, 0.3}, []bool{false, false})
	checks, _, _ := gateScaling(fresh, committed, cfg)
	pass := true
	for _, c := range checks {
		pass = pass && c.ok
	}
	if pass {
		t.Fatal("scaling gate passed a 2-worker efficiency collapse")
	}
}

func printableOK(t *testing.T, checks []check) []check {
	t.Helper()
	for _, c := range checks {
		if !c.ok {
			t.Fatalf("check %s failed: %+v", c.name, c)
		}
	}
	return checks
}
