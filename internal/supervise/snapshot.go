package supervise

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"marketminer/internal/metrics"
)

// snapshotSchema versions the snapshot envelope itself; payload schemas
// are the caller's business (carried in Fingerprint).
const snapshotSchema = "marketminer/snapshot/v1"

// ErrNoSnapshot is returned by LoadSnapshot when no snapshot file
// exists — the normal cold-start case, distinct from corruption.
var ErrNoSnapshot = errors.New("supervise: no snapshot")

// SnapshotCorruptError reports an unusable snapshot file: damaged
// bytes, a checksum mismatch, or a fingerprint from a different
// configuration. Callers treat it like a healed journal tail — warn
// and cold-start — never as fatal, and never as data.
type SnapshotCorruptError struct {
	Path   string
	Reason string
}

func (e *SnapshotCorruptError) Error() string {
	return fmt.Sprintf("supervise: snapshot %s corrupt: %s", e.Path, e.Reason)
}

// snapshotEnvelope is the on-disk form: schema + config fingerprint +
// CRC32 (IEEE) of the payload bytes.
type snapshotEnvelope struct {
	Schema      string          `json:"schema"`
	Fingerprint string          `json:"fingerprint"`
	CRC         uint32          `json:"crc"`
	Payload     json.RawMessage `json:"payload"`
}

// SaveSnapshot atomically persists payload to path: encode, CRC-seal,
// then WriteFileAtomic. A reader (or a crash) therefore sees either the
// previous complete snapshot or the new complete snapshot, never a
// torn hybrid.
//
// fingerprint identifies the producing configuration; LoadSnapshot
// refuses a snapshot whose fingerprint differs, so state is never
// restored into a differently-configured engine.
func SaveSnapshot(path, fingerprint string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("supervise: encode snapshot: %w", err)
	}
	env, err := json.Marshal(snapshotEnvelope{
		Schema:      snapshotSchema,
		Fingerprint: fingerprint,
		CRC:         crc32.ChecksumIEEE(raw),
		Payload:     raw,
	})
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, append(env, '\n')); err != nil {
		return fmt.Errorf("supervise: snapshot: %w", err)
	}
	metrics.Counter("supervise.snapshot_saves").Inc()
	return nil
}

// WriteFileAtomic replaces path with b durably: write a temp file in
// the same directory, fsync it, rename it over path, fsync the
// directory. It is the repository's one atomic small-file writer —
// snapshots and the sweep progress manifest both go through it.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort directory durability
		d.Close()
	}
	return nil
}

// LoadSnapshot reads the snapshot at path into payload. It returns
// ErrNoSnapshot when the file does not exist and *SnapshotCorruptError
// when the file exists but is unusable (bad JSON, schema or
// fingerprint mismatch, CRC failure). Only a nil return means payload
// holds trustworthy state.
func LoadSnapshot(path, fingerprint string, payload any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ErrNoSnapshot
		}
		return fmt.Errorf("supervise: read snapshot: %w", err)
	}
	corrupt := func(format string, args ...any) error {
		metrics.Counter("supervise.snapshot_corrupt").Inc()
		return &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return corrupt("undecodable envelope: %v", err)
	}
	if env.Schema != snapshotSchema {
		return corrupt("schema %q, want %q", env.Schema, snapshotSchema)
	}
	if env.Fingerprint != fingerprint {
		return corrupt("fingerprint %q does not match configuration %q", env.Fingerprint, fingerprint)
	}
	if crc32.ChecksumIEEE(env.Payload) != env.CRC {
		return corrupt("payload checksum mismatch")
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return corrupt("undecodable payload: %v", err)
	}
	return nil
}
