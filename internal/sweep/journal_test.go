package sweep

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marketminer/internal/backtest"
)

// completeJournal runs a small single-shard sweep to completion and
// returns its journal path, config, and the single-shot reference.
func completeJournal(t *testing.T) (string, backtest.Config, *backtest.Result) {
	t.Helper()
	cfg := testConfig(t, 4, 1, 2, 11)
	want, err := Backtest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.journal")
	if _, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path}); err != nil {
		t.Fatal(err)
	}
	return path, cfg, want
}

// reRun resumes the journal and reports how many units were
// re-executed, asserting the healed sweep still matches the reference.
func reRun(t *testing.T, path string, cfg backtest.Config, want *backtest.Result, wantRecovered bool) int {
	t.Helper()
	st, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if wantRecovered && st.Recovered == nil {
		t.Fatal("corruption was not detected/reported")
	}
	if !wantRecovered && st.Recovered != nil {
		t.Fatalf("unexpected corruption report: %v", st.Recovered)
	}
	got, _, err := MergeFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "post-recovery")
	return st.UnitsExecuted
}

// recordEnds reads path through JournalReader and returns the header
// length followed by the end offset of every intact record, plus the
// reader's corruption report.
func recordEnds(t *testing.T, path string) ([]int64, *Corruption) {
	t.Helper()
	r, err := OpenJournalReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ends := []int64{r.clean}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, r.clean)
	}
	return ends, r.Corrupt()
}

// lastRecordStart is where a completed journal's final record begins:
// the offset damage to that record must be healed back to.
func lastRecordStart(t *testing.T, path string) int64 {
	t.Helper()
	ends, c := recordEnds(t, path)
	if c != nil {
		t.Fatalf("fresh journal reads as corrupt: %v", c)
	}
	if len(ends) < 3 {
		t.Fatalf("journal holds %d records, want several", len(ends)-1)
	}
	return ends[len(ends)-2]
}

// wantCorruption asserts the reader finds damage at offset, for a
// reason containing why.
func wantCorruption(t *testing.T, path string, offset int64, why string) {
	t.Helper()
	_, c := recordEnds(t, path)
	if c == nil {
		t.Fatal("damage not detected by the reader")
	}
	if c.Offset != offset || !strings.Contains(c.Reason, why) {
		t.Fatalf("corruption %v, want offset %d and a reason mentioning %q", c, offset, why)
	}
}

// TestJournalTruncatedTail cuts the final record short — the shape a
// hard kill during a write leaves — and asserts detection at the
// record's first byte plus minimal re-execution: exactly the one
// damaged unit runs again.
func TestJournalTruncatedTail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, want := completeJournal(t)
	last := lastRecordStart(t, path)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	wantCorruption(t, path, last, "torn record")
	if n := reRun(t, path, cfg, want, true); n != 1 {
		t.Fatalf("re-executed %d units after a truncated tail, want exactly 1", n)
	}
}

// TestJournalGarbageTail appends bytes that are no frame at all;
// recovery cuts exactly them and re-runs nothing because every real
// unit survived.
func TestJournalGarbageTail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, want := completeJournal(t)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("!!not a frame at all!!\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantCorruption(t, path, fi.Size(), "protocol error")
	if n := reRun(t, path, cfg, want, true); n != 0 {
		t.Fatalf("re-executed %d units after trailing garbage, want 0", n)
	}
	if healed, err := os.Stat(path); err != nil || healed.Size() != fi.Size() {
		t.Fatalf("healed journal is %v bytes (err %v), want the intact %d", healed.Size(), err, fi.Size())
	}
}

// TestJournalChecksumMismatch flips one bit inside the final record's
// payload — a frame that is still whole and well-formed — and the
// CRC32 must catch it.
func TestJournalChecksumMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, want := completeJournal(t)
	last := lastRecordStart(t, path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x10 // the final record's last payload byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorruption(t, path, last, "checksum mismatch")
	if n := reRun(t, path, cfg, want, true); n != 1 {
		t.Fatalf("re-executed %d units after checksum damage, want exactly 1", n)
	}
}

// TestJournalCorruptHeader is unrecoverable by truncation and must
// error rather than silently restart — leaving the file as it was.
func TestJournalCorruptHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, _ := completeJournal(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path}); err == nil {
		t.Fatal("corrupt header should be a hard error")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, b) {
		t.Fatal("a journal with a corrupt header was modified")
	}
}

// v1Fixture is a half-finished v1 (JSON lines) journal written by the
// last release that wrote that format:
//
//	mmbacktest -scale tiny -levels 2 -block 8 -journal v1.journal -max-units 24
//
// i.e. 8 stocks x 2 days x 2 levels x 3 treatments in 8-pair blocks,
// 24 of 48 units done.
const v1Fixture = "testdata/v1_tiny_half.journal"

// copyFixture copies the v1 fixture into a fresh directory, optionally
// cutting cut bytes off its end.
func copyFixture(t *testing.T, cut int) string {
	t.Helper()
	b, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.journal")
	if err := os.WriteFile(path, b[:len(b)-cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalV1FixtureResumes is the read-both, write-new contract: a
// v1 journal still merges as far as it goes, resumes under the
// unchanged fingerprint by migrating to v2 in place, and the finished
// sweep merges byte-identical to Backtest.
func TestJournalV1FixtureResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(t, 8, 2, 2, 20080301) // the fixture's -scale tiny -levels 2
	want, err := Backtest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		cut      int
		restored int
	}{
		{"intact", 0, 24},
		{"torn", 5, 23}, // a torn final v1 line costs its one unit
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := copyFixture(t, tc.cut)
			if _, rep, err := MergeFiles([]string{path}); err == nil || rep == nil || rep.Units != tc.restored {
				t.Fatalf("merging the half-finished v1 journal: report %+v, err %v; want %d units and an incomplete-merge error",
					rep, err, tc.restored)
			}
			st, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 8, Shard: Shard{0, 1}, JournalPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if (st.Recovered != nil) != (tc.cut > 0) {
				t.Fatalf("corruption report %v for a fixture cut by %d bytes", st.Recovered, tc.cut)
			}
			if st.UnitsSkipped != tc.restored || st.UnitsExecuted != st.UnitsTotal-tc.restored {
				t.Fatalf("resume restored %d and ran %d of %d units, want %d restored",
					st.UnitsSkipped, st.UnitsExecuted, st.UnitsTotal, tc.restored)
			}
			r, err := OpenJournalReader(path)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			if r.Header.Schema != JournalSchema {
				t.Fatalf("resumed journal has schema %q, want %q", r.Header.Schema, JournalSchema)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("migration left its temporary file behind (stat err %v)", err)
			}
			got, _, err := MergeFiles([]string{path})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, got, "v1 fixture resumed")
		})
	}
}
