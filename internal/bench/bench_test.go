package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/metrics"
	"marketminer/internal/series"
	"marketminer/internal/taq"
)

func TestQuantile(t *testing.T) {
	xs := []float64{11, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1} // any order
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 6}, {0.9, 10}, {1, 11}, {0.25, 3.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v, want 0", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {680, 0.9}, {1000, 0.99}, {1360, 0.99}, {10000, 0.999}} {
		if got := HighestSupportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins Quartiles to the values
// statistics.quantiles(xs, n=4) returns, the rule the driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{7, 1, 3, 10, 4, 8, 2, 9, 5, 6}
	q1, q2, q3 := Quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of {1,2,4} = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := Spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "corr.series", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "strategy.run_day", Start: 40, End: 70},
		{ID: 4, Parent: 2, Name: "inner", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "corr.series", Start: 90, End: 120}, // clipped to its parent
	}
	got := SelfTimes(spans)
	want := map[string]int64{"job": 100 - 30 - 30 - 10, "corr.series": 20 + 30, "strategy.run_day": 30, "inner": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTraceRecordsAndWrites(t *testing.T) {
	tr := NewTrace()
	root, endRoot := tr.Begin(7, 0, "sweep.job")
	_, end := tr.Begin(7, root, "corr.series")
	end()
	endRoot()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.WriteJSONL(path, map[string]int64{"feed.evictions": 2}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 2 spans + 1 counters record", len(lines))
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "corr.series" || s.Parent != root || s.Run != 7 || s.End < s.Start {
		t.Errorf("span round trip: %+v", s)
	}
	if !strings.Contains(lines[2], `"feed.evictions":2`) {
		t.Errorf("counters record: %s", lines[2])
	}
}

// fakeClock advances only when slept on, plus a fixed cost per Now()
// call standing in for the time publishing takes.
type fakeClock struct {
	t       time.Time
	perCall time.Duration
	sleeps  []time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.t = c.t.Add(c.perCall)
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
}

func TestPaceOpenLoop(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	sch := schedule{start: start, speed: 1000} // 1 market second per wall millisecond
	// Quotes at market seconds 0.5, 1.5, 1.6, 4.2; intervals close on
	// quotes 1, 3 and the end of the stream.
	seq := []float64{0.5, 1.5, 1.6, 4.2}
	closing := []int{1, 3, len(seq)}
	var batches [][2]int
	sent := paceOpenLoop(clk, sch, time.Millisecond, seq, closing, func(lo, hi int) {
		batches = append(batches, [2]int{lo, hi})
		// No quote may be published before it is due.
		if due := sch.due(seq[hi-1]); clk.t.Before(due) {
			t.Errorf("quote %d published %v before due", hi-1, due.Sub(clk.t))
		}
	})
	want := [][2]int{{0, 1}, {1, 3}, {3, 4}}
	if len(batches) != len(want) {
		t.Fatalf("batches %v, want %v", batches, want)
	}
	for i := range want {
		if batches[i] != want[i] {
			t.Errorf("batch %d = %v, want %v", i, batches[i], want[i])
		}
	}
	// Wake-ups land on tick boundaries: quote 0 (due 0.5 ms) goes out at
	// 1 ms, quotes 1-2 at 2 ms, quote 3 (due 4.2 ms) at 5 ms.
	for s, wantMS := range []int{2, 5, 5} {
		if got := sent[s].Sub(start); got != time.Duration(wantMS)*time.Millisecond {
			t.Errorf("interval %d sent at %v, want %d ms", s, got, wantMS)
		}
	}
	// Lateness is send time minus due time of the closing quote.
	if late := sent[0].Sub(sch.due(seq[closing[0]])); late != 500*time.Microsecond {
		t.Errorf("interval 0 lateness %v, want 0.5 ms", late)
	}
}

// TestPaceStallCountsAsLateness: a publisher that stalls sends late,
// and the lateness shows up against the due time, not the send time.
func TestPaceStallCountsAsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start, perCall: 3 * time.Millisecond} // every clock read costs 3 ms
	sch := schedule{start: start, speed: 1000}
	seq := []float64{1, 2, 3, 4, 5, 6}
	closing := []int{2, 5}
	sent := paceOpenLoop(clk, sch, time.Millisecond, seq, closing, func(lo, hi int) {})
	for s, c := range closing {
		late := sent[s].Sub(sch.due(seq[c]))
		if late < 3*time.Millisecond {
			t.Errorf("interval %d lateness %v, want >= one stalled clock read", s, late)
		}
	}
}

func TestClosingQuotes(t *testing.T) {
	grid, err := series.NewGrid(30)
	if err != nil {
		t.Fatal(err)
	}
	quotes := []taq.Quote{{SeqTime: 1}, {SeqTime: 29}, {SeqTime: 31}, {SeqTime: 95}, {SeqTime: 100}}
	closing := closingQuotes(grid, quotes)
	// Interval 0 closes on quote 2 (t=31); intervals 1 and 2 both close
	// on quote 3 (t=95, interval 3); everything later on the stream end.
	want := []int{2, 3, 3, 5}
	for s, w := range want {
		if closing[s] != w {
			t.Errorf("closing[%d] = %d, want %d", s, closing[s], w)
		}
	}
	if closing[grid.SMax-1] != len(quotes) {
		t.Errorf("last interval closes on %d, want the stream end", closing[grid.SMax-1])
	}
}

func TestHashResultStable(t *testing.T) {
	mk := func() *backtest.Result {
		res := &backtest.Result{TradeCount: 3, Series: make([][]metrics.PairParamSeries, 2)}
		for p := range res.Series {
			res.Series[p] = make([]metrics.PairParamSeries, 2)
			for k := range res.Series[p] {
				res.Series[p][k].Daily = [][]float64{{0.01 * float64(p+1), -0.02}, nil}
			}
		}
		return res
	}
	a, b := mk(), mk()
	if HashResult(a) != HashResult(b) {
		t.Fatal("equal results hash differently")
	}
	// nil and empty rows are the same result (the journal's JSON round
	// trip merges them).
	b.Series[0][0].Daily[1] = []float64{}
	if HashResult(a) != HashResult(b) {
		t.Error("nil and empty rows hash differently")
	}
	// One flipped mantissa bit changes the hash.
	b.Series[1][1].Daily[0][1] = math.Float64frombits(math.Float64bits(-0.02) ^ 1)
	if HashResult(a) == HashResult(b) {
		t.Error("a one-bit change did not change the hash")
	}
	// The digest itself is pinned: golden.json is only as stable as this.
	if got, want := HashResult(a), "502c5f2f499d35a6"; got != want {
		t.Errorf("HashResult of the fixed result = %s, want %s", got, want)
	}
}

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !ValidName(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range EndToEnd {
		check("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] end-to-end metric")
	}
	for _, m := range PerLayer {
		check("metric", m.Name)
		if !strings.HasPrefix(m.Name, m.Layer+".") {
			t.Errorf("%s is not named after its layer %q", m.Name, m.Layer)
		}
		for _, w := range m.On {
			if _, ok := WorkloadByName(w); !ok {
				t.Errorf("%s applies to unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if ValidName("") || ValidName("-x") || ValidName("a b") || ValidName(strings.Repeat("x", 65)) {
		t.Error("ValidName accepts an illegal name")
	}
}

// TestBenchmarkJSONInSync: the committed BENCHMARK.json is exactly what
// the tables generate.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := BenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go run ./cmd/mmbench list -json > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
}

// tinyStocks is the universe of the smoke runs.
const tinyStocks = 8

func tinyRun(t *testing.T, workload string, trace bool, g *Golden) *Report {
	t.Helper()
	if g == nil {
		g = &Golden{Seed: DefaultSeed} // empty: the embedded golden is for full size anyway
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, Options{
		Workload: workload, Seed: DefaultSeed, Seconds: 0.2, Trace: trace,
		Dir: t.TempDir(), Stocks: tinyStocks, Golden: g,
	})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	return rep
}

// TestSmokeAllWorkloads runs all four workloads at 8 stocks, untraced
// and traced, and checks that every metric of BENCHMARK.json is emitted
// and nothing else is.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				t.Parallel() // nothing here asserts a timing
				smoke(t, w, trace)
			})
		}
	}
}

func smoke(t *testing.T, w Workload, trace bool) {
	rep := tinyRun(t, w.Name, trace, nil)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s (trace=%v): correct=%v failed=%d attempted=%d notes=%v", w.Name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Notes)
	}
	table := EndToEnd
	if trace {
		table = PerLayer
	}
	if len(rep.Metrics) != len(table) {
		t.Errorf("%s (trace=%v): %d metrics emitted, table has %d", w.Name, trace, len(rep.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s (trace=%v): %s not emitted", w.Name, trace, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
		case !trace && v.Value <= 0:
			t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, v.Value)
		case trace && !m.applies(w.Name) && v.Value != 0:
			t.Errorf("%s: %s = %v on a workload it does not apply to", w.Name, m.Name, v.Value)
		}
	}
	var line bytes.Buffer
	if err := PrintRun(&line, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(line.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics: %s", len(keys), lines[len(lines)-1])
	}
}

// TestWrongGoldenFailsEverything: a run checked against its own golden
// passes; a deliberately wrong golden flips fail_frac to 1.0.
func TestWrongGoldenFailsEverything(t *testing.T) {
	for _, name := range []string{wRobust, wSaturate} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wrongGolden(t, name)
		})
	}
}

func wrongGolden(t *testing.T, name string) {
	// An empty golden names no expectation; the run reports its own.
	first := tinyRun(t, name, false, nil)
	if name == wRobust {
		good := &Golden{Seed: DefaultSeed, Workloads: map[string]GoldenEntry{name: first.Entry}}
		if rep := tinyRun(t, name, false, good); !rep.Correct || rep.Notes["golden"] != "checked" {
			t.Errorf("%s against its own golden: correct=%v failed=%d notes=%v", name, rep.Correct, rep.Failed, rep.Notes)
		}
	}
	wrong := first.Entry
	wrong.ResultHash, wrong.SignalsHash = "0000000000000000", "0000000000000000"
	bad := &Golden{Seed: DefaultSeed, Workloads: map[string]GoldenEntry{name: wrong}}
	rep := tinyRun(t, name, false, bad)
	if rep.Correct || rep.FailFrac() != 1.0 {
		t.Errorf("%s against a wrong golden: correct=%v fail_frac=%v, want false and 1.0", name, rep.Correct, rep.FailFrac())
	}
}

func summary(vals ...float64) Summary {
	q1, q2, q3 := Quartiles(vals)
	return Summary{Values: vals, Q1: q1, Median: q2, Q3: q3, Spread: Spread(vals)}
}

func TestCompare(t *testing.T) {
	mk := func(tput, lat Summary) *Results {
		e2e := map[string]Summary{}
		for _, m := range EndToEnd {
			e2e[m.Name] = summary(1, 1, 1)
		}
		e2e["pair_param_days_per_s"], e2e["result_latency_p50_ms"] = tput, lat
		return &Results{Schema: ResultsSchema, Host: Host{CPUModel: "x", NumCPU: 2}, Seed: 1, RunSeconds: 20, Workloads: []WorkloadResult{{
			Name: wRobust, EndToEnd: e2e,
			PerLayer: map[string]Value{"sweep.units": {Value: 630}},
		}}}
	}
	verdict := func(rep *CompareReport, metric string) Verdict {
		for _, r := range rep.Rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		t.Fatalf("no row for %s", metric)
		return ""
	}
	base := mk(summary(100, 101, 102), summary(10, 10.1, 10.2))

	same, err := Compare(base, mk(summary(99, 100, 101), summary(10, 10.2, 10.3)))
	if err != nil || same.Failed() {
		t.Fatalf("near-identical sets: err=%v failed=%v\n%s", err, same != nil && same.Failed(), same)
	}

	slower, err := Compare(base, mk(summary(60, 61, 62), summary(10, 10.1, 10.2)))
	if err != nil {
		t.Fatal(err)
	}
	if verdict(slower, "pair_param_days_per_s") != Regression || !slower.Failed() {
		t.Errorf("40%% lower throughput not a regression:\n%s", slower)
	}

	faster, _ := Compare(base, mk(summary(150, 151, 152), summary(10, 10.1, 10.2)))
	if faster.Failed() {
		t.Errorf("higher throughput flagged:\n%s", faster)
	}

	noisy, _ := Compare(base, mk(summary(100, 101, 102), summary(6, 12, 18)))
	if verdict(noisy, "result_latency_p50_ms") != Unresolved {
		t.Errorf("a spread above the bound must be unresolved:\n%s", noisy)
	}

	failing := mk(summary(100, 101, 102), summary(10, 10.1, 10.2))
	failing.Workloads[0].FailFrac = 0.01
	if rep, _ := Compare(base, failing); !rep.Failed() {
		t.Error("a fail_frac rise must fail the comparison")
	}

	counts := mk(summary(100, 101, 102), summary(10, 10.1, 10.2))
	counts.Workloads[0].PerLayer["sweep.units"] = Value{Value: 629}
	if rep, _ := Compare(base, counts); !rep.Failed() {
		t.Error("a differing exact count must fail the comparison")
	}

	other := mk(summary(100, 101, 102), summary(10, 10.1, 10.2))
	other.Host.NumCPU = 64
	if _, err := Compare(base, other); err == nil {
		t.Error("results from different hosts were compared")
	}
}
