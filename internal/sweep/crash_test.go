package sweep

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"marketminer/internal/backtest"
)

// crashConfig must be identical in the helper subprocess and the
// resuming parent: the journal fingerprint binds them together.
func crashConfig(t *testing.T) backtest.Config {
	return testConfig(t, 6, 2, 2, 42)
}

// TestSweepCrashHelper is not a test: it is the subprocess body for
// the SIGKILL test below, selected via environment variable. It kills
// itself — no cleanup, no deferred closes, no journal fsync — the
// moment enough units are done, which is as close to a real crash
// mid-write as a test can get.
func TestSweepCrashHelper(t *testing.T) {
	if os.Getenv("MM_SWEEP_CRASH_HELPER") != "1" {
		t.Skip("helper process only")
	}
	killAfter, err := strconv.Atoi(os.Getenv("MM_SWEEP_CRASH_AFTER"))
	if err != nil {
		t.Fatal(err)
	}
	Run(context.Background(), RunConfig{
		Config:      crashConfig(t),
		BlockSize:   4,
		Shard:       Shard{0, 1},
		JournalPath: os.Getenv("MM_SWEEP_CRASH_JOURNAL"),
		Progress: func(p ProgressInfo) {
			if p.Done >= killAfter {
				syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
			}
		},
	})
	t.Fatal("helper survived its own SIGKILL")
}

// TestSweepSIGKILLResumesLostUnitsOnly hard-kills a real sweep process
// mid-run and resumes its journal: the checkpointed units must be
// restored rather than recomputed, any torn tail healed, and the
// merged result bit-identical to an uninterrupted single-shot run.
// This is the crash-recovery claim tested with an actual SIGKILL, not
// a simulated truncation.
func TestSweepSIGKILLResumesLostUnitsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const killAfter = 12
	cfg := crashConfig(t)
	want, err := backtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.journal")

	cmd := exec.Command(os.Args[0], "-test.run=TestSweepCrashHelper", "-test.v")
	cmd.Env = append(os.Environ(),
		"MM_SWEEP_CRASH_HELPER=1",
		"MM_SWEEP_CRASH_JOURNAL="+path,
		"MM_SWEEP_CRASH_AFTER="+strconv.Itoa(killAfter),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper exited cleanly; expected SIGKILL mid-sweep:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != -1 {
		t.Fatalf("helper died of %v, want a signal:\n%s", err, out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("killed process left no journal (err %v)", err)
	}

	st, err := Run(context.Background(), RunConfig{
		Config: cfg, BlockSize: 4, Shard: Shard{0, 1}, JournalPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != nil {
		t.Logf("healed torn tail: %v", st.Recovered)
	}
	// Every unit the dead process completed must be restored from the
	// journal (the torn final record, if any, may cost one).
	if st.UnitsSkipped < killAfter-1 {
		t.Errorf("resumed run restored %d units, want ≥ %d (checkpoints lost)", st.UnitsSkipped, killAfter-1)
	}
	if st.UnitsSkipped >= st.UnitsTotal {
		t.Errorf("resumed run restored all %d units; the kill should have left work", st.UnitsTotal)
	}
	if st.UnitsExecuted+st.UnitsSkipped != st.UnitsTotal {
		t.Errorf("resume incomplete: %d executed + %d restored of %d", st.UnitsExecuted, st.UnitsSkipped, st.UnitsTotal)
	}

	got, rep, err := MergeFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Units != rep.UnitsTotal || rep.Duplicates != 0 {
		t.Fatalf("merge report after crash+resume: %+v", rep)
	}
	sameResult(t, want, got, "SIGKILL+resume")
}
