package supervise

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
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

// quarLine is the on-disk envelope: the CRC32 (IEEE) of the record's
// JSON encoding guards every line, as it guarded every line of the v1
// sweep journal.
type quarLine struct {
	CRC uint32          `json:"crc"`
	R   json.RawMessage `json:"r"`
}

// Quarantine is the poison-message journal: an append-only CRC-guarded
// JSONL file (or memory-only when no path is given) plus the in-memory
// key set stages consult before processing. A message quarantined in a
// previous incarnation of the process is skipped on replay rather than
// being allowed to kill its stage again — "journaled and skipped, not
// re-fed forever".
//
// Tail healing mirrors the sweep journal: on open, a torn or corrupt
// trailing line is detected by its CRC and truncated away; every fully
// synced record survives.
type Quarantine struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	seen    map[string]QuarantineRecord
	healed  bool
	loaded  int
	appends int
}

// OpenQuarantine opens (or creates) the journal at path, loading every
// intact record. An empty path gives a memory-only quarantine, which
// is what unit tests and one-shot pipelines use.
func OpenQuarantine(path string) (*Quarantine, error) {
	q := &Quarantine{path: path, seen: make(map[string]QuarantineRecord)}
	if path == "" {
		return q, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("supervise: open quarantine: %w", err)
	}
	cleanSize, err := q.load(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > cleanSize {
		q.healed = true
		if err := f.Truncate(cleanSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("supervise: heal quarantine tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	q.f = f
	q.w = bufio.NewWriter(f)
	return q, nil
}

// load reads intact records and returns the byte offset of the last
// fully-valid line (the clean size).
func (q *Quarantine) load(f *os.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	var clean int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var ql quarLine
		if err := json.Unmarshal(line, &ql); err != nil {
			return clean, nil // torn tail: stop at the last good line
		}
		if crc32.ChecksumIEEE(ql.R) != ql.CRC {
			return clean, nil
		}
		var rec QuarantineRecord
		if err := json.Unmarshal(ql.R, &rec); err != nil {
			return clean, nil
		}
		q.seen[rec.Key] = rec
		q.loaded++
		clean += int64(len(line)) + 1
	}
	return clean, sc.Err()
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

// Healed reports whether opening truncated a damaged tail.
func (q *Quarantine) Healed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.healed
}

// Record quarantines key, journaling the record durably (flush+fsync:
// a quarantine exists precisely because the process may be about to
// die) before it takes effect. Recording an already-seen key is a
// no-op.
func (q *Quarantine) Record(stage, key, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.seen[key]; ok {
		return nil
	}
	rec := QuarantineRecord{Stage: stage, Key: key, Reason: reason}
	if q.f != nil {
		raw, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("supervise: encode quarantine record: %w", err)
		}
		line, err := json.Marshal(quarLine{CRC: crc32.ChecksumIEEE(raw), R: raw})
		if err != nil {
			return err
		}
		if _, err := q.w.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("supervise: append quarantine: %w", err)
		}
		if err := q.w.Flush(); err != nil {
			return fmt.Errorf("supervise: flush quarantine: %w", err)
		}
		if err := q.f.Sync(); err != nil {
			return fmt.Errorf("supervise: sync quarantine: %w", err)
		}
	}
	q.seen[key] = rec
	q.appends++
	return nil
}

// Records returns every quarantined record, sorted by key for stable
// reports.
func (q *Quarantine) Records() []QuarantineRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QuarantineRecord, 0, len(q.seen))
	for _, rec := range q.seen {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Close flushes and closes the journal file (no-op when memory-only).
func (q *Quarantine) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.f == nil {
		return nil
	}
	if err := q.w.Flush(); err != nil {
		q.f.Close()
		return err
	}
	err := q.f.Close()
	q.f = nil
	return err
}
