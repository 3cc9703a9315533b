package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// DefaultOut is where results and traces go unless -out says otherwise.
const DefaultOut = "internal/bench/out"

// ResultsSchema versions the results file.
const ResultsSchema = "marketminer/mmbench/v1"

// notesPrefix marks the line a run prints before its result line.
const notesPrefix = "# notes "

// Results is one set of runs of every workload: k untraced runs and
// one traced run each. It carries everything needed to judge whether
// two files may be compared: revision, dirty flag, host, sizes, seed,
// k and run length.
type Results struct {
	Schema     string           `json:"schema"`
	Revision   string           `json:"revision"`
	Dirty      bool             `json:"dirty"`
	Host       Host             `json:"host"`
	Seed       int64            `json:"seed"`
	K          int              `json:"k"`
	RunSeconds float64          `json:"run_seconds"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// Summary is a set's view of one end-to-end metric.
type Summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

// WorkloadResult is one workload's part of a set.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Sizes     string             `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	EndToEnd  map[string]Summary `json:"end_to_end"`
	PerLayer  map[string]Value   `json:"per_layer"`
	Notes     map[string]string  `json:"notes"`
}

// PrintRun writes a run's notes line and result line — the result
// last, as the driver requires.
func PrintRun(w io.Writer, rep *Report) error {
	notes, err := json.Marshal(rep.Notes)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n%s\n", notesPrefix, notes, line)
	return err
}

// SuiteConfig selects a set of runs.
type SuiteConfig struct {
	// Exe is the mmbench binary to start one child process per run.
	Exe     string
	Seed    int64
	K       int
	Seconds float64
	Out     string
	// Log receives one progress line per run.
	Log io.Writer
}

// childRun starts one `mmbench run --workload …` process and parses its
// last two lines.
func childRun(ctx context.Context, c SuiteConfig, workload string, trace bool) (*Report, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, c.Exe, "run", "--workload", workload, "--seed", fmt.Sprint(c.Seed),
		"--seconds", fmt.Sprint(c.Seconds), "--trace", t, "--out", c.Out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	rep := newReport()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if notes, ok := strings.CutPrefix(sc.Text(), notesPrefix); ok {
			if err := json.Unmarshal([]byte(notes), &rep.Notes); err != nil {
				return nil, fmt.Errorf("bench: %s: bad notes line: %w", workload, err)
			}
			continue
		}
		last = sc.Text()
	}
	if last == "" {
		return nil, fmt.Errorf("bench: %s printed no result (%v): %s", workload, runErr, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return nil, fmt.Errorf("bench: %s: bad result line: %w", workload, err)
	}
	return rep, nil // a failed run still reports; fail_frac carries it
}

// RunSuite runs every workload K times untraced and once traced, each
// run a fresh child process.
func RunSuite(ctx context.Context, c SuiteConfig) (*Results, error) {
	if c.K < 3 {
		return nil, fmt.Errorf("bench: a set needs k >= 3 runs, got %d", c.K)
	}
	rev, dirty := Revision()
	res := &Results{
		Schema: ResultsSchema, Revision: rev, Dirty: dirty, Host: HostFingerprint(),
		Seed: c.Seed, K: c.K, RunSeconds: c.Seconds,
	}
	for _, w := range Workloads {
		wr := WorkloadResult{Name: w.Name, Sizes: w.Sizes, EndToEnd: map[string]Summary{}}
		values := map[string][]float64{}
		for i := 0; i < c.K; i++ {
			rep, err := childRun(ctx, c, w.Name, false)
			if err != nil {
				return nil, err
			}
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			wr.Notes = rep.Notes
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
			fmt.Fprintf(c.Log, "%s run %d/%d: %d/%d failed\n", w.Name, i+1, c.K, rep.Failed, rep.Attempted)
		}
		for _, m := range EndToEnd {
			q1, q2, q3 := Quartiles(values[m.Name])
			wr.EndToEnd[m.Name] = Summary{Unit: m.Unit, Values: values[m.Name], Q1: q1, Median: q2, Q3: q3, Spread: Spread(values[m.Name])}
		}
		rep, err := childRun(ctx, c, w.Name, true)
		if err != nil {
			return nil, err
		}
		wr.Attempted += rep.Attempted
		wr.Failed += rep.Failed
		wr.PerLayer = rep.Metrics
		fmt.Fprintf(c.Log, "%s traced: %d/%d failed\n", w.Name, rep.Failed, rep.Attempted)
		if wr.Attempted > 0 {
			wr.FailFrac = float64(wr.Failed) / float64(wr.Attempted)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

// WriteResults writes the set to path as indented JSON.
func WriteResults(path string, res *Results) error {
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadResults reads a results file.
func ReadResults(path string) (*Results, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if res.Schema != ResultsSchema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, res.Schema, ResultsSchema)
	}
	return &res, nil
}

// MetricLines renders every metric of a set as "workload name unit
// value" lines: medians for end-to-end metrics, the traced run's value
// for layer metrics that apply to the workload.
func MetricLines(res *Results) string {
	var b strings.Builder
	for _, w := range res.Workloads {
		for _, m := range EndToEnd {
			s := w.EndToEnd[m.Name]
			fmt.Fprintf(&b, "%s %s %s %.6g (q1 %.6g, q3 %.6g, spread %.3f)\n", w.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.Spread)
		}
		fmt.Fprintf(&b, "%s fail_frac ratio %g\n", w.Name, w.FailFrac)
		for _, m := range PerLayer {
			if m.applies(w.Name) {
				fmt.Fprintf(&b, "%s %s %s %.6g\n", w.Name, m.Name, m.Unit, w.PerLayer[m.Name].Value)
			}
		}
	}
	return b.String()
}

// ListText renders the workload and metric tables.
func ListText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run length %d s, %d set-ups per run, default seed %d\n\nworkloads:\n", RunSeconds, SetupRepeats, DefaultSeed)
	for _, w := range Workloads {
		fmt.Fprintf(&b, "  %s (%s)\n    why:   %s\n    sizes: %s\n", w.Name, w.Kind, w.Why, w.Sizes)
	}
	b.WriteString("\nend-to-end metrics (every workload reports every one):\n")
	for _, m := range EndToEnd {
		fmt.Fprintf(&b, "  %s [%s, %s is better, bound %.2f]\n    %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Def)
	}
	b.WriteString("\nper-layer metrics (traced run; 0 on a workload that does not run the layer):\n")
	for _, m := range PerLayer {
		on := "all"
		if m.On != nil {
			on = strings.Join(m.On, ", ")
		}
		fmt.Fprintf(&b, "  %s [%s, %s is better] on %s; should move %s\n    %s\n", m.Name, m.Unit, m.Better, on, m.Moves, m.Def)
	}
	return b.String()
}
