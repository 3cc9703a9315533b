package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"marketminer/internal/strategy"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
)

func runBaseline(t *testing.T, u *taq.Universe, quotes []taq.Quote) *PipelineResult {
	t.Helper()
	res, err := RunPipeline(context.Background(), PipelineConfig{
		Universe: u, Params: []strategy.Params{pipelineParams()},
	}, quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func supervisedConfig(u *taq.Universe, opts *SuperviseOptions) PipelineConfig {
	return PipelineConfig{
		Universe:  u,
		Params:    []strategy.Params{pipelineParams()},
		Supervise: opts,
	}
}

// The supervision runtime must be an observer, not a participant: a
// fault-free supervised run produces results identical to the plain
// pipeline.
func TestSupervisedFaultFreeMatchesUnsupervised(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	base := runBaseline(t, u, quotes)

	res, err := RunPipeline(context.Background(), supervisedConfig(u, &SuperviseOptions{}), quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.QuotesIn != base.QuotesIn || res.QuotesClean != base.QuotesClean ||
		res.Matrices != base.Matrices || res.Orders != base.Orders ||
		res.OrdersRejected != base.OrdersRejected || res.CashPnL != base.CashPnL {
		t.Errorf("supervised run diverged: %+v vs baseline %+v", res, base)
	}
	if !reflect.DeepEqual(res.Trades, base.Trades) {
		t.Error("supervised trade stream differs from unsupervised")
	}
	sup := res.Supervision
	if sup == nil {
		t.Fatal("no supervision report attached")
	}
	if !sup.Drained {
		t.Error("natural end of stream not reported as drained")
	}
	if len(sup.Stages) == 0 {
		t.Error("no stage reports collected")
	}
	for _, st := range sup.Stages {
		if st.Panics != 0 || st.Quarantined != 0 {
			t.Errorf("fault-free run reported faults: %+v", st)
		}
	}
}

func TestSupervisedSnapshotThenResume(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	path := filepath.Join(t.TempDir(), "engine.snap")
	// A cadence that does not divide the matrix count, so the last
	// snapshot leaves a genuine tail to recompute.
	opts := func() *SuperviseOptions {
		return &SuperviseOptions{SnapshotPath: path, SnapshotEvery: 13}
	}

	first, err := RunPipeline(context.Background(), supervisedConfig(u, opts()), quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Supervision.Snapshots == 0 {
		t.Fatalf("no snapshots written: %+v", first.Supervision)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	// A restarted process over the same stream restores the engine's
	// warm windows and skips the intervals they already contain.
	second, err := RunPipeline(context.Background(), supervisedConfig(u, opts()), quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	sup := second.Supervision
	if !sup.Resumed || sup.ResumeCursor <= 0 {
		t.Fatalf("restart did not resume from snapshot: %+v", sup)
	}
	if second.Matrices >= first.Matrices || second.Matrices == 0 {
		t.Errorf("resumed run recomputed %d matrices (first run: %d); want only the post-snapshot tail",
			second.Matrices, first.Matrices)
	}
}

// A snapshot for a different configuration must never be restored: the
// fingerprint binds warm state to engine config, day, and grid spacing.
func TestSupervisedSnapshotFingerprintMismatch(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	path := filepath.Join(t.TempDir(), "engine.snap")
	opts := &SuperviseOptions{SnapshotPath: path, SnapshotEvery: 10}

	if _, err := RunPipeline(context.Background(), supervisedConfig(u, opts), quotes, 0); err != nil {
		t.Fatal(err)
	}
	// Same snapshot, different day: must cold-start, not resume.
	res, err := RunPipeline(context.Background(), supervisedConfig(u, opts), quotes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.Resumed {
		t.Error("snapshot from day 0 was restored into a day-1 run")
	}
	if res.Supervision.ColdStart == "" {
		t.Error("fingerprint mismatch not surfaced as a cold-start warning")
	}
}

func TestSupervisedCorruptSnapshotColdStarts(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	base := runBaseline(t, u, quotes)
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := os.WriteFile(path, []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bool
	res, err := RunPipeline(context.Background(), supervisedConfig(u, &SuperviseOptions{
		SnapshotPath: path,
		Logf:         func(string, ...any) { logged = true },
	}), quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.Resumed || res.Supervision.ColdStart == "" {
		t.Errorf("corrupt snapshot not rejected: %+v", res.Supervision)
	}
	if !logged {
		t.Error("cold start not logged")
	}
	// Cold start means the corrupt file changed nothing.
	if res.Matrices != base.Matrices || !reflect.DeepEqual(res.Trades, base.Trades) {
		t.Error("corrupt snapshot skewed the results")
	}
}

// A key quarantined in a previous incarnation is skipped on replay
// instead of being re-fed to the stage that it killed.
func TestSupervisedQuarantinedKeySkippedOnReplay(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	base := runBaseline(t, u, quotes)
	path := filepath.Join(t.TempDir(), "quarantine.snap")

	// Pre-seed the quarantine as if a prior run had quarantined a band of
	// return intervals after repeated panics.
	quar, err := supervise.OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	for s := 40; s < 60; s++ {
		if err := quar.Record("correlation", "correlation|interval|"+strconv.Itoa(s), "poison (test)"); err != nil {
			t.Fatal(err)
		}
	}

	res, err := RunPipeline(context.Background(), supervisedConfig(u, &SuperviseOptions{
		QuarantinePath: path,
	}), quotes, 0)
	if err != nil {
		t.Fatal(err)
	}
	var corrStage *supervise.StageReport
	for i := range res.Supervision.Stages {
		if res.Supervision.Stages[i].Name == "correlation" {
			corrStage = &res.Supervision.Stages[i]
		}
	}
	if corrStage == nil {
		t.Fatal("no correlation stage report")
	}
	if corrStage.Skipped == 0 {
		t.Fatalf("no quarantined intervals skipped: %+v", corrStage)
	}
	if res.Matrices != base.Matrices-int(corrStage.Skipped) {
		t.Errorf("matrices = %d, want baseline %d minus %d skipped pushes",
			res.Matrices, base.Matrices, corrStage.Skipped)
	}
}

// Cancelling a drain-mode run ends the stream instead of aborting the
// DAG: partial results come back with a nil error.
func TestSupervisedGracefulDrainOnCancel(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// An endless feed: cancels itself after a partial day, then keeps
	// emitting until the pipeline tells it to stop.
	sent := 0
	endless := func(ctx context.Context, emit func(taq.Quote) bool) error {
		for i := 0; ; i = (i + 1) % len(quotes) {
			if !emit(quotes[i]) {
				return nil
			}
			if sent++; sent == len(quotes)/2 {
				cancel()
			}
		}
	}

	res, err := RunPipelineSource(ctx, supervisedConfig(u, &SuperviseOptions{
		DrainTimeout: 5 * time.Second,
	}), endless, 0)
	if err != nil {
		t.Fatalf("cancelled drain-mode run failed: %v", err)
	}
	if !res.Supervision.Drained {
		t.Error("drain within a generous timeout reported as forced abort")
	}
	if res.QuotesIn == 0 || res.QuotesIn > sent {
		t.Errorf("partial results: %d quotes in, %d sent", res.QuotesIn, sent)
	}
}

// A source that ignores cancellation is forcibly aborted once the drain
// deadline passes; the run still returns its partial results.
func TestSupervisedDrainDeadlineForcesAbort(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stuck := func(ctx context.Context, emit func(taq.Quote) bool) error {
		for _, q := range quotes[:200] {
			if !emit(q) {
				return nil
			}
		}
		cancel()
		<-ctx.Done() // ignores the graceful stop; only force reaches it
		return ctx.Err()
	}

	res, err := RunPipelineSource(ctx, supervisedConfig(u, &SuperviseOptions{
		DrainTimeout: 50 * time.Millisecond,
	}), stuck, 0)
	if err != nil {
		t.Fatalf("forced abort should still return partial results, got: %v", err)
	}
	if res.Supervision.Drained {
		t.Error("a stuck source cannot have drained cleanly")
	}
	if res.QuotesIn != 200 {
		t.Errorf("quotes in = %d, want the 200 delivered before the stall", res.QuotesIn)
	}
}
