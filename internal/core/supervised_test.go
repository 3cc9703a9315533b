package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"marketminer/internal/corr"
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

// A snapshot that cannot be used costs a cold start, never the run
// and never its results: garbage bytes fail the envelope check, and a
// snapshot with a valid envelope and the right fingerprint but an
// engine field Restore rejects (a ring head outside the window) fails
// the engine's own validation.
func TestSupervisedCorruptSnapshotColdStarts(t *testing.T) {
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	base := runBaseline(t, u, quotes)
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, path string)
		want  string // in the cold-start warning
	}{
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("garbage, not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt"},
		{"rejected-field", func(t *testing.T, path string) {
			// A real run writes the snapshot; the test rewrites it under
			// the fingerprint read back from it.
			if _, err := RunPipeline(context.Background(), supervisedConfig(u, &SuperviseOptions{
				SnapshotPath: path, SnapshotEvery: 13,
			}), quotes, 0); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Fingerprint string      `json:"fingerprint"`
				Payload     engineState `json:"payload"`
			}
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			env.Payload.Engine.Head = env.Payload.Engine.M + 3
			if err := supervise.SaveSnapshot(path, env.Fingerprint, env.Payload); err != nil {
				t.Fatal(err)
			}
		}, "head"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "engine.snap")
			tc.write(t, path)
			var logged []string
			res, err := RunPipeline(context.Background(), supervisedConfig(u, &SuperviseOptions{
				SnapshotPath: path,
				Logf:         func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
			}), quotes, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Supervision.Resumed || !strings.Contains(res.Supervision.ColdStart, tc.want) {
				t.Errorf("unusable snapshot not rejected (want %q in the warning): %+v", tc.want, res.Supervision)
			}
			if !strings.Contains(strings.Join(logged, "\n"), "cold-starting") {
				t.Errorf("cold start not logged: %q", logged)
			}
			// Cold start means the unusable file changed nothing.
			if res.Matrices != base.Matrices || !reflect.DeepEqual(res.Trades, base.Trades) {
				t.Error("unusable snapshot skewed the results")
			}
		})
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

// killConfig is the supervised day the SIGKILL test crashes: the test
// day under estimator ct, snapshotting to path every 13 matrices (a
// cadence that does not divide the day's matrix count).
func killConfig(u *taq.Universe, ct corr.Type, path string) PipelineConfig {
	cfg := supervisedConfig(u, &SuperviseOptions{SnapshotPath: path, SnapshotEvery: 13})
	cfg.Params[0].Ctype = ct
	return cfg
}

// killAt is the interval from which the helper's tap kills the process
// as soon as a snapshot exists: mid-day, so the resumed run has
// snapshots of its own left to write.
const killAt = 390

// TestSupervisedSIGKILLHelper is not a test: it is the subprocess body
// of TestSupervisedSIGKILLResumesBitIdentical, selected by environment.
// From interval killAt on, its tap waits for the correlation stage's
// first snapshot and then SIGKILLs the process: no deferred cleanup,
// the snapshot on disk is all the next run gets.
func TestSupervisedSIGKILLHelper(t *testing.T) {
	path := os.Getenv("MM_SIGKILL_SNAPSHOT")
	if path == "" {
		t.Skip("helper process only")
	}
	ct, err := corr.ParseType(os.Getenv("MM_SIGKILL_TYPE"))
	if err != nil {
		t.Fatal(err)
	}
	u := testUniverse(t)
	cfg := killConfig(u, ct, path)
	cfg.ReturnsTap = func(s int, _ []float64) error {
		if s < killAt {
			return nil
		}
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, err := os.Stat(path); err == nil {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
		return errors.New("no snapshot written by mid-day")
	}
	_, err = RunPipeline(context.Background(), cfg, genQuotes(t, u), 0)
	t.Fatalf("helper survived its own SIGKILL: %v", err)
}

// A supervised pipeline SIGKILLed mid-day resumes from its last
// snapshot and finishes the day in the state an uninterrupted run
// reaches: the final snapshot file is byte-equal to the clean run's,
// and the resumed run computes exactly the matrices after its cursor.
func TestSupervisedSIGKILLResumesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: re-executes the test binary")
	}
	u := testUniverse(t)
	quotes := genQuotes(t, u)
	for _, ct := range []corr.Type{corr.Pearson, corr.Maronna, corr.Combined} {
		t.Run(ct.String(), func(t *testing.T) {
			dir := t.TempDir()
			cleanPath := filepath.Join(dir, "clean.snap")
			cfg := killConfig(u, ct, cleanPath)
			var intervals []int // every return interval the correlation stage is fed
			cfg.ReturnsTap = func(s int, _ []float64) error {
				intervals = append(intervals, s)
				return nil
			}
			clean, err := RunPipeline(context.Background(), cfg, quotes, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(cleanPath)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, "engine.snap")
			cmd := exec.Command(os.Args[0], "-test.run=^TestSupervisedSIGKILLHelper$")
			cmd.Env = append(os.Environ(), "MM_SIGKILL_SNAPSHOT="+path, "MM_SIGKILL_TYPE="+ct.String())
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("helper: %v, want death by SIGKILL:\n%s", err, out)
			}
			if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("helper ended with %v, want death by SIGKILL:\n%s", err, out)
			}

			res, err := RunPipeline(context.Background(), killConfig(u, ct, path), quotes, 0)
			if err != nil {
				t.Fatal(err)
			}
			sup := res.Supervision
			if !sup.Resumed || sup.ResumeCursor <= 0 || sup.Snapshots == 0 {
				t.Fatalf("rerun after SIGKILL: %+v, want a resume that snapshots again", sup)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("final snapshot after SIGKILL at interval %d differs from the clean run's", sup.ResumeCursor)
			}
			// The clean run made one matrix per interval once its
			// M-interval window was full.
			before := 1 - pipelineParams().M
			for _, s := range intervals {
				if s <= sup.ResumeCursor {
					before++
				}
			}
			if res.Matrices+before != clean.Matrices {
				t.Errorf("resumed at %d: %d matrices + %d at or before the cursor, want the clean run's %d",
					sup.ResumeCursor, res.Matrices, before, clean.Matrices)
			}
			t.Logf("resumed at interval %d, recomputed %d matrices", sup.ResumeCursor, res.Matrices)
		})
	}
}
