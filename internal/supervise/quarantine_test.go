package supervise

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"marketminer/internal/engine"
)

func TestQuarantinePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.snap")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Record("corr", "quote-17", "panic: NaN mid"); err != nil {
		t.Fatal(err)
	}
	if err := q.Record("corr", "quote-42", "panic: bad index"); err != nil {
		t.Fatal(err)
	}
	if err := q.Record("corr", "quote-17", "duplicate record is a no-op"); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", q2.Len())
	}
	if !q2.Seen("quote-17") || !q2.Seen("quote-42") || q2.Seen("quote-99") {
		t.Errorf("seen set wrong after reload")
	}
	recs := q2.Records()
	if recs[0].Reason != "panic: NaN mid" {
		t.Errorf("first record overwritten by duplicate: %+v", recs[0])
	}
	if q2.Healed() {
		t.Error("clean file reported healed")
	}
	// Each Record replaced the file whole: no temp files beside it.
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Errorf("quarantine directory holds %v (%v), want the one file", entries, err)
	}
}

// copyFixture copies testdata/name into a fresh directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQuarantineHealsTornTail: a v1 quarantine — CRC-guarded JSONL,
// three records then a line torn by a crash mid-append, as written by
// the previous format — loads its intact records and reports the heal;
// the next Record rewrites it as a snapshot that reopens clean.
func TestQuarantineHealsTornTail(t *testing.T) {
	path := copyFixture(t, "v1_quarantine.jsonl")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Healed() {
		t.Error("torn tail not reported as healed")
	}
	v1Keys := []string{"cleaner|quote|AAPL|34200017", "correlation|interval|41", "strategy|matrix|77"}
	if q.Len() != len(v1Keys) {
		t.Fatalf("loaded %d v1 records, want %d", q.Len(), len(v1Keys))
	}
	for _, k := range v1Keys {
		if !q.Seen(k) {
			t.Errorf("intact v1 record %q lost", k)
		}
	}

	if err := q.Record("s", "c", "r3"); err != nil {
		t.Fatal(err)
	}
	var recs []QuarantineRecord
	if err := LoadSnapshot(path, quarantineFingerprint, &recs); err != nil || len(recs) != 4 {
		t.Fatalf("Record did not rewrite the v1 file as a 4-record snapshot: %d records, %v", len(recs), err)
	}
	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 4 || q2.Healed() {
		t.Errorf("after heal+record: len=%d healed=%v, want 4/false", q2.Len(), q2.Healed())
	}
}

// TestQuarantineRejectsBitFlippedLine: a snapshot with a flipped bit
// fails its CRC, so the quarantine opens empty and reports the heal.
// The poison message it had recorded is therefore re-fed — and, with
// retries off, re-quarantined on its first panic, which rewrites the
// file whole.
func TestQuarantineRejectsBitFlippedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.snap")
	q, _ := OpenQuarantine(path)
	q.Record("stage", "msg-1", "poison")
	q.Record("stage", "msg-2", "poison")

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-12] ^= 0x01 // inside the payload, under the CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Healed() || q2.Len() != 0 {
		t.Fatalf("bit flip handling: healed=%v len=%d, want true/0", q2.Healed(), q2.Len())
	}

	p := testPolicy(&fakeClock{}, 5)
	p.Retries = -1
	st := NewStage("stage", p, q2, intKey)
	attempts := 0
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		if m.(int) == 2 {
			attempts++
			panic("poison")
		}
		emit(m)
		return nil
	}
	got, err := runStageGraph(t, st, proc, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 3]" || attempts != 1 {
		t.Fatalf("delivered %v after %d poison attempts, want [1 3] after 1", got, attempts)
	}
	q3, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q3.Healed() || q3.Len() != 1 || !q3.Seen("msg-2") {
		t.Errorf("after re-quarantine: healed=%v len=%d, want a clean file holding msg-2", q3.Healed(), q3.Len())
	}
}

// TestQuarantineUnusablePathFailsAtOpen: a path whose directory does
// not exist fails at open, not at the first poison message.
func TestQuarantineUnusablePathFailsAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "quarantine.snap")
	if _, err := OpenQuarantine(path); err == nil {
		t.Fatal("OpenQuarantine accepted a path in a nonexistent directory")
	}
}

func TestQuarantineMemoryOnly(t *testing.T) {
	q, err := OpenQuarantine("")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Record("s", "k", "r"); err != nil {
		t.Fatal(err)
	}
	if !q.Seen("k") || q.Len() != 1 {
		t.Error("memory-only quarantine not recording")
	}
}
