package supervise

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// v1CoordLine is a farm coordinator manifest in its v1 format (one
// {"crc","m"} line), as the previous coordinator wrote it mid-sweep.
const v1CoordLine = `{"crc":1227461693,"m":{"schema":"marketminer/farm-coordinator/v1","fingerprint":"8f1d64a26799dfed","epoch":1,"next_session":3,"next_lease":3,"leases":[{"gid":0,"lease":1,"gen":1,"session":1}],"pending":[2,1,3,4,5,6,7]}}` + "\n"

// addStateFileSeeds seeds a state-file fuzzer: a valid snapshot of
// payload, the same truncated, bit-flipped and empty, and both v1
// formats the snapshot replaced.
func addStateFileSeeds(f *testing.F, fingerprint string, payload any) {
	path := filepath.Join(f.TempDir(), "seed.snap")
	if err := SaveSnapshot(path, fingerprint, payload); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	v1Quarantine, err := os.ReadFile(filepath.Join("testdata", "v1_quarantine.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], flipped, nil, []byte(v1CoordLine), v1Quarantine} {
		f.Add(seed)
	}
}

// FuzzLoadSnapshot: on arbitrary file bytes LoadSnapshot never panics,
// fails only with *SnapshotCorruptError, and succeeds only when the
// schema, fingerprint and payload CRC all match.
func FuzzLoadSnapshot(f *testing.F) {
	addStateFileSeeds(f, "cfg", fakeState{Cursor: 7, Values: []float64{1.5}, Comment: "seed"})
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var out json.RawMessage
		err := LoadSnapshot(path, "cfg", &out)
		if err != nil {
			var ce *SnapshotCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want nil or *SnapshotCorruptError", err)
			}
			return
		}
		var env snapshotEnvelope
		if json.Unmarshal(b, &env) != nil || env.Schema != snapshotSchema || env.Fingerprint != "cfg" ||
			crc32.ChecksumIEEE(env.Payload) != env.CRC {
			t.Fatalf("LoadSnapshot accepted %q, whose schema, fingerprint or CRC does not match", b)
		}
	})
}

// FuzzOpenQuarantine: on arbitrary file bytes OpenQuarantine never
// panics or fails, opening is read-only (a second open sees the same
// keys and heal status), and after one Record the file reopens clean
// with the same keys plus the new one.
func FuzzOpenQuarantine(f *testing.F) {
	addStateFileSeeds(f, quarantineFingerprint, []QuarantineRecord{{"s", "a", "r1"}, {"s", "b", "r2"}})
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "quarantine.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQuarantine(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := q.Records()
		again, err := OpenQuarantine(path)
		if err != nil || again.Healed() != q.Healed() || !reflect.DeepEqual(again.Records(), recs) {
			t.Fatalf("second open differs: healed %v→%v, %d→%d records (%v)", q.Healed(), again.Healed(), len(recs), again.Len(), err)
		}

		fresh := "fuzz-fresh"
		for q.Seen(fresh) {
			fresh += "+"
		}
		if err := q.Record("fuzz", fresh, "r"); err != nil {
			t.Fatal(err)
		}
		healed, err := OpenQuarantine(path)
		if err != nil {
			t.Fatal(err)
		}
		if healed.Healed() || healed.Len() != len(recs)+1 || !healed.Seen(fresh) {
			t.Fatalf("after Record: healed=%v len=%d, want a clean file of %d keys", healed.Healed(), healed.Len(), len(recs)+1)
		}
		for _, rec := range recs {
			if !healed.Seen(rec.Key) {
				t.Fatalf("key %q lost by the rewrite", rec.Key)
			}
		}
	})
}
