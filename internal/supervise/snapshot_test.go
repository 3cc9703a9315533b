package supervise

import (
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

type fakeState struct {
	Cursor  int       `json:"cursor"`
	Values  []float64 `json:"values"`
	Comment string    `json:"comment"`
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	in := fakeState{Cursor: 42, Values: []float64{1.5, -2.25, 1e-300}, Comment: "mid-day"}
	if err := SaveSnapshot(path, "cfg-abc", in); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	if err := LoadSnapshot(path, "cfg-abc", &out); err != nil {
		t.Fatal(err)
	}
	if out.Cursor != in.Cursor || out.Comment != in.Comment || len(out.Values) != 3 || out.Values[2] != 1e-300 {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestSnapshotMissingIsColdStart(t *testing.T) {
	var out fakeState
	err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap"), "cfg", &out)
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := SaveSnapshot(path, "cfg", fakeState{Cursor: 7}); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func() []byte
	}{
		{"truncated", func() []byte { return clean[:len(clean)/2] }},
		{"bit-flip", func() []byte {
			m := append([]byte(nil), clean...)
			m[len(m)/2] ^= 0x01
			return m
		}},
		{"garbage", func() []byte { return []byte("not json at all\n") }},
		{"empty", func() []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			var out fakeState
			err := LoadSnapshot(path, "cfg", &out)
			var ce *SnapshotCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want SnapshotCorruptError", err)
			}
		})
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := SaveSnapshot(path, "cfg-v1", fakeState{Cursor: 7}); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	err := LoadSnapshot(path, "cfg-v2", &out)
	var ce *SnapshotCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want SnapshotCorruptError on fingerprint mismatch", err)
	}
}

func TestSnapshotOverwriteIsAtomicReplacement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := SaveSnapshot(path, "cfg", fakeState{Cursor: 1}); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(path, "cfg", fakeState{Cursor: 2}); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	if err := LoadSnapshot(path, "cfg", &out); err != nil {
		t.Fatal(err)
	}
	if out.Cursor != 2 {
		t.Errorf("cursor = %d, want 2 (newest snapshot)", out.Cursor)
	}
	// No temp-file litter.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1: %v", len(entries), entries)
	}
}

// TestSnapshotBytesPinned pins SaveSnapshot's exact output for a fixed
// payload and fingerprint. The engine, broker and chaos snapshots all
// go through it, so a format change would orphan every snapshot on
// disk; this digest was taken from the format's original writer.
func TestSnapshotBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pin.snap")
	in := fakeState{Cursor: 7, Values: []float64{1.5, -2.25, 1e-300}, Comment: "pinned"}
	if err := SaveSnapshot(path, "cfg-pin", in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	if got := h.Sum64(); got != 0xb15204e0617ab81e {
		t.Fatalf("snapshot bytes changed: FNV-64a %016x, want b15204e0617ab81e:\n%s", got, raw)
	}
}
