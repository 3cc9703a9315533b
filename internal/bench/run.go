package bench

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"marketminer/internal/metrics"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the run length: batch workloads start jobs and
	// online_saturate starts replays while the next is expected to end
	// inside it; online_paced replays its day in exactly this long.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	Trace bool
	// Dir receives trace_<workload>.jsonl; journals and snapshots live in
	// a run-* directory under it that the run removes when it ends.
	Dir string
	// Stocks overrides the workload's universe size (tests run the four
	// workloads at 8 stocks); 0 keeps the workload's own.
	Stocks int
	// Golden overrides the embedded golden.json (tests inject a wrong
	// one); nil uses the embedded file.
	Golden *Golden

	work string // the run's own directory under Dir, set by Run
}

func (o Options) stocks(w Workload) int {
	if o.Stocks > 0 {
		return o.Stocks
	}
	return w.Stocks
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one run. Its JSON form is the line the
// driver reads: exactly correct, attempted, failed and metrics.
type Report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// Notes carries hashes, sizes and counts for mmbench's own results
	// files; it is not part of the driver's line.
	Notes map[string]string `json:"-"`
	// Entry is what the run would record in golden.json (untraced runs).
	Entry GoldenEntry `json:"-"`
}

func newReport() *Report {
	return &Report{Metrics: map[string]Value{}, Notes: map[string]string{}}
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, x := range EndToEnd {
		m[x.Name] = x.Unit
	}
	for _, x := range PerLayer {
		m[x.Name] = x.Unit
	}
	return m
}()

// set records a metric; the name must be in the metric table.
func (r *Report) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	r.Metrics[name] = Value{Value: v, Unit: unit}
}

func (r *Report) note(k, v string) { r.Notes[k] = v }

// FailFrac is failed ÷ attempted operations.
func (r *Report) FailFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Run executes one run of one workload and returns its report. The
// report holds every end-to-end metric (untraced) or every per-layer
// metric (traced); a layer metric the workload does not exercise
// reads 0.
func Run(ctx context.Context, o Options) (*Report, error) {
	w, ok := WorkloadByName(o.Workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: run length %v must be positive", o.Seconds)
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("bench: Options.Dir is required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: output dir: %w", err)
	}
	var err error
	if o.work, err = os.MkdirTemp(o.Dir, "run-*"); err != nil {
		return nil, fmt.Errorf("bench: work dir: %w", err)
	}
	defer os.RemoveAll(o.work)
	var rep *Report
	switch {
	case w.Kind == Batch && !o.Trace:
		rep, err = runBatch(ctx, w, o)
	case w.Kind == Batch:
		rep, err = traceBatch(ctx, w, o)
	case !o.Trace:
		rep, err = runOnline(ctx, w, o)
	default:
		rep, err = traceOnline(ctx, w, o)
	}
	if err != nil {
		return nil, err
	}
	table := EndToEnd
	if o.Trace {
		table = PerLayer
	}
	for _, m := range table {
		if _, ok := rep.Metrics[m.Name]; ok {
			continue
		}
		if m.Layer == "" || m.applies(w.Name) {
			return nil, fmt.Errorf("bench: %s did not report %s", w.Name, m.Name)
		}
		rep.set(m.Name, 0)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// Golden holds the expected hashes and counts for DefaultSeed at full
// size, per workload.
type Golden struct {
	// Command is how the file was produced.
	Command   string                 `json:"command"`
	Seed      int64                  `json:"seed"`
	Workloads map[string]GoldenEntry `json:"workloads"`
}

// GoldenEntry is one workload's expectation at one universe size.
// Batch workloads fill ResultHash and Trades; online workloads the
// rest.
type GoldenEntry struct {
	Stocks       int    `json:"stocks"`
	ResultHash   string `json:"result_hash,omitempty"`
	Trades       int64  `json:"trades,omitempty"`
	SignalsHash  string `json:"signals_hash,omitempty"`
	PipelineHash string `json:"pipeline_hash,omitempty"`
	Delivered    int    `json:"delivered,omitempty"`
	Matrices     int    `json:"matrices,omitempty"`
}

//go:embed golden.json
var goldenJSON []byte

var embeddedGolden = func() *Golden {
	var g Golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return &g
}()

// golden returns the expectation that applies to this run: only the
// golden's own seed and universe size have one.
func (o Options) golden(w Workload, stocks int) (GoldenEntry, bool) {
	g := o.Golden
	if g == nil {
		g = embeddedGolden
	}
	e, ok := g.Workloads[w.Name]
	return e, ok && o.Seed == g.Seed && e.Stocks == stocks
}

// MakeGolden runs every workload once, untraced, at DefaultSeed and
// returns the golden file those runs define.
func MakeGolden(ctx context.Context, seconds float64, dir string) (*Golden, error) {
	g := &Golden{
		Command:   "go run ./cmd/mmbench golden > internal/bench/golden.json",
		Seed:      DefaultSeed,
		Workloads: map[string]GoldenEntry{},
	}
	for _, w := range Workloads {
		// An empty golden: nothing to compare against while producing one.
		rep, err := Run(ctx, Options{Workload: w.Name, Seed: DefaultSeed, Seconds: seconds, Dir: dir, Golden: &Golden{Seed: DefaultSeed}})
		if err != nil {
			return nil, err
		}
		if !rep.Correct {
			return nil, fmt.Errorf("bench: %s failed %d of %d operations; not recording a golden", w.Name, rep.Failed, rep.Attempted)
		}
		g.Workloads[w.Name] = rep.Entry
	}
	return g, nil
}

// counterSnapshot reads the process-wide operational counters.
func counterSnapshot() map[string]int64 {
	out := map[string]int64{}
	for _, c := range metrics.Counters() {
		out[c.Name] = c.Value
	}
	return out
}

// counterDelta returns what moved since the snapshot.
func counterDelta(before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range counterSnapshot() {
		if d := v - before[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}
