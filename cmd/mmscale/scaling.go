package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
)

// cpuModel best-effort reads the CPU model name from /proc/cpuinfo so
// benchmark artifacts record the hardware they were measured on.
// Returns "" when unavailable (non-Linux, restricted container).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRevision best-effort resolves the short revision of the working
// tree the benchmark ran from. Returns "" outside a git checkout.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// scalingPoint is one worker count on the scaling curve. Points with
// Workers > NumCPU are marked Oversubscribed: they exist so the curve
// is complete even on constrained hosts (a 1-core container still
// produces a 1..4 curve), but their speedup/efficiency measure
// scheduler behaviour, not hardware scaling, and consumers such as
// mmbenchgate must skip them when judging parallel efficiency.
type scalingPoint struct {
	Workers        int     `json:"workers"`
	NsPerOp        int64   `json:"ns_per_op"`
	Speedup        float64 `json:"speedup"`    // vs the 1-worker point
	Efficiency     float64 `json:"efficiency"` // speedup / workers
	Oversubscribed bool    `json:"oversubscribed,omitempty"`
}

// scalingReport is the BENCH_scaling.json schema: the matrix engine's
// strong-scaling curve over every worker count from 1 up to
// max(4, NumCPU) on a fixed day workload, with enough environment
// detail (cpu, numcpu, revision, gomaxprocs) to interpret the numbers
// later. NumCPU documents the host core count so a curve measured on a
// 1-core container is not mistaken for a flat-scaling regression; the
// points beyond NumCPU are flagged oversubscribed.
type scalingReport struct {
	Schema      string         `json:"schema"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"numcpu"`
	CPUModel    string         `json:"cpu_model,omitempty"`
	GitRevision string         `json:"git_revision,omitempty"`
	Workload    string         `json:"workload"`
	WindowM     int            `json:"window_m"`
	Points      []scalingPoint `json:"points"`
}

// scalingWorkerCounts returns every worker count 1..max(4, numCPU):
// the full curve, not a doubling subsample, so efficiency cliffs
// between powers of two are visible, and never fewer than four points
// so constrained hosts still produce a curve (the tail is just marked
// oversubscribed).
func scalingWorkerCounts(numCPU int) []int {
	maxW := numCPU
	if maxW < 4 {
		maxW = 4
	}
	counts := make([]int, 0, maxW)
	for w := 1; w <= maxW; w++ {
		counts = append(counts, w)
	}
	return counts
}

// writeScalingJSON benchmarks the full three-treatment matrix pass over
// the prepared day at each worker count and writes the scaling report.
func writeScalingJSON(path string, dd *backtest.DayData) error {
	numCPU := runtime.NumCPU()
	rep := scalingReport{
		Schema:      "marketminer/bench_scaling/v2",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      numCPU,
		CPUModel:    cpuModel(),
		GitRevision: gitRevision(),
		Workload: fmt.Sprintf("ComputeSeriesMulti, %d stocks, %d returns, all three treatments",
			len(dd.Returns), len(dd.Returns[0])),
		WindowM: benchWindowM,
	}
	types := []corr.Type{corr.Pearson, corr.Maronna, corr.Combined}
	var baseNs int64
	for _, w := range scalingWorkerCounts(numCPU) {
		cfg := corr.EngineConfig{M: benchWindowM, Workers: w}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := corr.ComputeSeriesMulti(cfg, types, dd.Returns); err != nil {
					b.Fatal(err)
				}
			}
		})
		pt := scalingPoint{Workers: w, NsPerOp: r.NsPerOp(), Oversubscribed: w > numCPU}
		if baseNs == 0 {
			baseNs = pt.NsPerOp
		}
		if pt.NsPerOp > 0 {
			pt.Speedup = float64(baseNs) / float64(pt.NsPerOp)
			pt.Efficiency = pt.Speedup / float64(w)
		}
		rep.Points = append(rep.Points, pt)
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
