package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
)

// QuarantineRecord is one poisoned message: the stage it kept killing,
// its stable key, and the failure it caused.
type QuarantineRecord struct {
	Stage  string `json:"stage"`
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// quarantineFingerprint seals the quarantine snapshot. A quarantine has
// no configuration of its own, so the fingerprint names the payload
// format instead.
const quarantineFingerprint = "marketminer/quarantine/v2"

// Quarantine is the poison-message set: the in-memory key set stages
// consult before processing, persisted (unless memory-only) as one
// snapshot that every Record rewrites whole. A message quarantined in
// a previous incarnation of the process is skipped on replay rather
// than being allowed to kill its stage again — "journaled and skipped,
// not re-fed forever". The set grows by one key per poison message, so
// the rewrite is cheap, and the snapshot's atomic replace leaves no
// tail to tear.
type Quarantine struct {
	mu     sync.Mutex
	path   string
	seen   map[string]QuarantineRecord
	healed bool
}

// OpenQuarantine loads the quarantine at path; a missing file is
// created as an empty quarantine. An empty path gives a memory-only
// quarantine, which is what unit tests and one-shot pipelines use.
//
// A damaged file is not fatal. Open keeps whatever intact records it
// still yields — none from a damaged snapshot, the intact prefix of a
// v1 JSONL file — and Healed reports the loss; the next Record
// rewrites the file as a snapshot.
func OpenQuarantine(path string) (*Quarantine, error) {
	q := &Quarantine{path: path, seen: make(map[string]QuarantineRecord)}
	if path == "" {
		return q, nil
	}
	var recs []QuarantineRecord
	err := LoadSnapshot(path, quarantineFingerprint, &recs)
	var corrupt *SnapshotCorruptError
	switch {
	case errors.As(err, &corrupt):
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("supervise: open quarantine: %w", err)
		}
		recs, q.healed = loadQuarantineV1(raw)
	case errors.Is(err, ErrNoSnapshot):
		// Create the empty set now, so an unusable path fails here and
		// not at the first poison message the quarantine exists for.
		if err := SaveSnapshot(path, quarantineFingerprint, q.recordsLocked()); err != nil {
			return nil, fmt.Errorf("supervise: open quarantine: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("supervise: open quarantine: %w", err)
	}
	for _, rec := range recs {
		q.seen[rec.Key] = rec
	}
	return q, nil
}

// loadQuarantineV1 reads the v1 format — one {"crc","r"} line per
// record, each guarded by the CRC32 (IEEE) of its record JSON — up to
// the first line that fails its check, and reports whether anything
// followed that intact prefix. Any file that is not a sound snapshot
// lands here, so a damaged snapshot reads as an empty, healed prefix.
func loadQuarantineV1(raw []byte) (recs []QuarantineRecord, healed bool) {
	for len(raw) > 0 {
		line, rest, _ := bytes.Cut(raw, []byte{'\n'})
		var ql struct {
			CRC uint32          `json:"crc"`
			R   json.RawMessage `json:"r"`
		}
		var rec QuarantineRecord
		if json.Unmarshal(line, &ql) != nil || crc32.ChecksumIEEE(ql.R) != ql.CRC ||
			json.Unmarshal(ql.R, &rec) != nil {
			return recs, true
		}
		recs = append(recs, rec)
		raw = rest
	}
	return recs, false
}

// Seen reports whether key is quarantined.
func (q *Quarantine) Seen(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.seen[key]
	return ok
}

// Len returns the number of quarantined keys.
func (q *Quarantine) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.seen)
}

// Healed reports whether opening found a damaged file and kept only
// its intact records.
func (q *Quarantine) Healed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.healed
}

// Record quarantines key, rewriting the snapshot durably (a quarantine
// exists precisely because the process may be about to die) before it
// takes effect. Recording an already-seen key is a no-op.
func (q *Quarantine) Record(stage, key, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.seen[key]; ok {
		return nil
	}
	q.seen[key] = QuarantineRecord{Stage: stage, Key: key, Reason: reason}
	if q.path == "" {
		return nil
	}
	if err := SaveSnapshot(q.path, quarantineFingerprint, q.recordsLocked()); err != nil {
		delete(q.seen, key)
		return fmt.Errorf("supervise: record quarantine: %w", err)
	}
	return nil
}

// Records returns every quarantined record, sorted by key for stable
// reports.
func (q *Quarantine) Records() []QuarantineRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recordsLocked()
}

func (q *Quarantine) recordsLocked() []QuarantineRecord {
	out := make([]QuarantineRecord, 0, len(q.seen))
	for _, rec := range q.seen {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
