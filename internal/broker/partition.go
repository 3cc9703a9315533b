package broker

import (
	"fmt"
	"os"
	"sync"
	"time"

	"marketminer/internal/feed"
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

// partitionPairs deals the canonical pair ids of an n-stock universe to
// their partitions, ascending within each. Broker and subscriber both
// derive the column order of an interval from it, which is why pair
// ids never travel.
func partitionPairs(n, partitions int) [][]int {
	byPart := make([][]int, partitions)
	for id := 0; id < n*(n-1)/2; id++ {
		p := PartitionOf(id, partitions)
		byPart[p] = append(byPart[p], id)
	}
	return byPart
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
// partition, stored as one columnar record per logged interval. Every
// interval holds np signals (one per owned pair, ascending), so record
// i covers offsets i·np+1 … (i+1)·np: offsets start at 1, are dense
// and per signal, and are never stored. Records are never mutated
// after append, so readers hold zero-copy views of their columns.
type partitionLog struct {
	mu     sync.Mutex
	np     int
	recs   []feed.Interval
	stamps []int64 // append nanos per interval (empty unless collecting)
	sealed bool
	stamp  bool
}

func newPartitionLog(pairs int, collectStamps bool) *partitionLog {
	// The hash can leave a partition without pairs (N=4 in 4 partitions
	// does); appendInterval keeps its log empty, so np only has to keep
	// the offset arithmetic defined.
	return &partitionLog{np: max(pairs, 1), stamp: collectStamps}
}

// appendInterval logs interval s, taking ownership of its np-long
// columns. An interval without signals occupies no offsets and is not
// logged. The caller (the owning processor, under generation fencing)
// guarantees single-writer semantics.
func (l *partitionLog) appendInterval(s int, c, cbar []float64, kind []uint8) {
	if len(c) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, feed.Interval{
		S: uint32(s), Base: uint64(len(l.recs) * l.np), Pairs: uint32(l.np),
		C: c, Cbar: cbar, Kind: kind,
	})
	if l.stamp {
		l.stamps = append(l.stamps, time.Now().UnixNano())
	}
}

// end returns the newest assigned offset (0 when empty).
func (l *partitionLog) end() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.recs) * l.np)
}

// lastLoggedS returns the grid interval of the newest record (-1 when
// empty) — the replay-deduplication watermark.
func (l *partitionLog) lastLoggedS() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return -1
	}
	return int(l.recs[len(l.recs)-1].S)
}

// read returns the signals at offsets [next, next+max) that lie in
// next's interval, and whether the log is sealed with nothing at or
// after next.
func (l *partitionLog) read(next uint64, max int) (iv feed.Interval, drained bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next < 1 {
		next = 1
	}
	i, first := int(next-1)/l.np, int(next-1)%l.np
	if i >= len(l.recs) {
		return feed.Interval{}, l.sealed
	}
	iv = l.recs[i].From(first)
	if n := min(iv.Len(), max); n < iv.Len() {
		iv.C, iv.Cbar, iv.Kind = iv.C[:n], iv.Cbar[:n], iv.Kind[:n]
	}
	return iv, false
}

// tail returns the last ≤ w records at or before offset end: the
// compaction source for snapshot-on-subscribe (w = 1) and the ring
// source for a restored processor (w = W).
func (l *partitionLog) tail(end uint64, w int) []feed.Interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(int(end)/l.np, len(l.recs))
	return l.recs[max(0, n-w):n:n]
}

// stampAt returns the append timestamp of an offset (bench only).
func (l *partitionLog) stampAt(off uint64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := int(off-1) / l.np; off >= 1 && i < len(l.stamps) {
		return l.stamps[i]
	}
	return 0
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

// stateStore persists per-partition processor state across processor
// generations: the broker process is alive, a partition worker died.
// memStore is the one implementation; tests substitute a recording
// store through the interface.
type stateStore interface {
	save(part int, fingerprint string, payload any) error
	load(part int, fingerprint string, payload any) error
}

type memStore struct {
	mu     sync.Mutex
	states map[int]procState
	fps    map[int]string
}

// save keeps the value itself: an engine snapshot shares no memory
// with its engine, and Restore copies out of it.
func (s *memStore) save(part int, fp string, payload any) error {
	st, ok := payload.(procState)
	if !ok {
		return fmt.Errorf("broker: memory store cannot hold %T", payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.states == nil {
		s.states = make(map[int]procState)
		s.fps = make(map[int]string)
	}
	s.states[part] = st
	s.fps[part] = fp
	return nil
}

func (s *memStore) load(part int, fp string, payload any) error {
	s.mu.Lock()
	st, ok := s.states[part]
	have := s.fps[part]
	s.mu.Unlock()
	if !ok {
		return os.ErrNotExist
	}
	if have != fp {
		return fmt.Errorf("broker: state fingerprint mismatch for partition %d", part)
	}
	dst, ok := payload.(*procState)
	if !ok {
		return fmt.Errorf("broker: memory store cannot load into %T", payload)
	}
	*dst = st
	return nil
}
