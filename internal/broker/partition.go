package broker

import (
	"sync"

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

// partition is one topic partition: its pair subset and its signal
// log. Its processor's lease is the core's (brokerState.leases).
type partition struct {
	id    int
	pairs []int // canonical pair ids, ascending
	log   *partitionLog
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
	sealed bool
}

func newPartitionLog(pairs int) *partitionLog {
	// The hash can leave a partition without pairs (N=4 in 4 partitions
	// does); appendInterval keeps its log empty, so np only has to keep
	// the offset arithmetic defined.
	return &partitionLog{np: max(pairs, 1)}
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
}

// end returns the newest assigned offset (0 when empty).
func (l *partitionLog) end() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.recs) * l.np)
}

// records returns the number of logged intervals — a processor's
// cursor into the matrix log.
func (l *partitionLog) records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
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
// source for a relaunched processor (w = W).
func (l *partitionLog) tail(end uint64, w int) []feed.Interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(int(end)/l.np, len(l.recs))
	return l.recs[max(0, n-w):n:n]
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
