package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"marketminer/internal/feed"
	"marketminer/internal/supervise"
)

// PartitionOf maps a canonical pair id to its topic partition by a
// stable splitmix64-style hash: independent of partition-processor
// scheduling, insertion order and process restarts, so a pair's
// partition is a pure function of (pair id, partition count).
func PartitionOf(pairID, partitions int) int {
	h := uint64(pairID) + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(partitions))
}

// partition is one topic partition: its pair subset, its signal log,
// and the lease state of its current processor generation.
type partition struct {
	id    int
	pairs []int // canonical pair ids, ascending
	log   *partitionLog

	mu      sync.Mutex
	gen     int       // processor generation (fencing token)
	killed  bool      // hard-kill flag for the current generation
	renewed time.Time // last lease renewal
	done    bool      // sealed input fully processed
}

// partitionLog is the append-only, offset-addressed signal log of one
// partition. Offsets start at 1 and are contiguous; signals are never
// mutated or moved after append (the store is chunked), so readers hold
// zero-copy subslices. latest maps pair id → index of its newest signal
// (the compaction source for snapshot-on-subscribe).
type partitionLog struct {
	mu     sync.Mutex
	sigs   chunkLog[feed.Signal]
	stamps chunkLog[int64] // append nanos per signal (empty unless collecting)
	latest map[uint32]int
	lastS  int // grid interval of the newest appended batch
	sealed bool
	stamp  bool
}

func newPartitionLog(collectStamps bool) *partitionLog {
	return &partitionLog{latest: make(map[uint32]int), lastS: -1, stamp: collectStamps}
}

// appendBatch assigns contiguous offsets to one interval's signals and
// appends them atomically. The caller (the owning processor, under
// generation fencing) guarantees single-writer semantics.
func (l *partitionLog) appendBatch(s int, sigs []feed.Signal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var now int64
	if l.stamp {
		now = time.Now().UnixNano()
	}
	for i := range sigs {
		sigs[i].Offset = uint64(l.sigs.len() + 1)
		l.latest[sigs[i].Pair] = l.sigs.len()
		l.sigs.append(sigs[i])
		if l.stamp {
			l.stamps.append(now)
		}
	}
	if s > l.lastS {
		l.lastS = s
	}
}

// end returns the newest assigned offset (0 when empty).
func (l *partitionLog) end() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(l.sigs.len())
}

// lastLoggedS returns the grid interval of the newest batch (-1 when
// empty) — the replay-deduplication watermark.
func (l *partitionLog) lastLoggedS() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastS
}

// read returns signals with offsets in [next, next+max) and whether
// the log is sealed with nothing at or after next.
func (l *partitionLog) read(next uint64, max int) (sigs []feed.Signal, drained bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next < 1 {
		next = 1
	}
	lo := int(next - 1)
	if lo >= l.sigs.len() {
		return nil, l.sealed
	}
	return l.sigs.slice(lo, min(lo+max, l.sigs.len())), false
}

// stampAt returns the append timestamp of an offset (bench only).
func (l *partitionLog) stampAt(off uint64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.stamp || off < 1 || int(off) > l.stamps.len() {
		return 0
	}
	return l.stamps.at(int(off - 1))
}

// snapshotLatest returns the compacted state: the newest signal per
// pair (ascending pair id) and the log end offset it is current as of.
func (l *partitionLog) snapshotLatest() (end uint64, latest []feed.Signal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	latest = make([]feed.Signal, 0, len(l.latest))
	for _, idx := range l.latest {
		latest = append(latest, l.sigs.at(idx))
	}
	sort.Slice(latest, func(i, j int) bool { return latest[i].Pair < latest[j].Pair })
	return uint64(l.sigs.len()), latest
}

func (l *partitionLog) seal() {
	l.mu.Lock()
	l.sealed = true
	l.mu.Unlock()
}

func (l *partitionLog) isSealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// stateStore persists per-partition processor state across restarts.
// The memory store survives processor generations (the common case:
// the broker process is alive, a partition worker died); the file
// store additionally survives the process via supervise's CRC-guarded
// atomic-rename snapshot files.
type stateStore interface {
	save(part int, fingerprint string, payload any) error
	load(part int, fingerprint string, payload any) error
}

type memStore struct {
	mu    sync.Mutex
	blobs map[int][]byte
	fps   map[int]string
}

func (s *memStore) save(part int, fp string, payload any) error {
	b, err := marshalState(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blobs == nil {
		s.blobs = make(map[int][]byte)
		s.fps = make(map[int]string)
	}
	s.blobs[part] = b
	s.fps[part] = fp
	return nil
}

func (s *memStore) load(part int, fp string, payload any) error {
	s.mu.Lock()
	b, ok := s.blobs[part]
	have := s.fps[part]
	s.mu.Unlock()
	if !ok {
		return os.ErrNotExist
	}
	if have != fp {
		return fmt.Errorf("broker: state fingerprint mismatch for partition %d", part)
	}
	return unmarshalState(b, payload)
}

type fileStore struct{ dir string }

func (s *fileStore) path(part int) string {
	return filepath.Join(s.dir, fmt.Sprintf("partition-%03d.snap", part))
}

func (s *fileStore) save(part int, fp string, payload any) error {
	return supervise.SaveSnapshot(s.path(part), fp, payload)
}

func (s *fileStore) load(part int, fp string, payload any) error {
	return supervise.LoadSnapshot(s.path(part), fp, payload)
}
