package broker

import (
	"fmt"
	"slices"
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

// partitionLog is the offset-addressed signal log of one partition,
// stored as one columnar record per logged interval. Every interval
// holds np signals (one per owned pair, ascending), so record i covers
// offsets i·np+1 … (i+1)·np: offsets start at 1, are dense and per
// signal, and are never stored. The log is a window: the core's floor
// (brokerState.release) releases the records below it, whose columns
// the processor's next gather reuses (spare). Records are never mutated
// until released. A handler copies what it reads under the lock
// (read): the floor can pass a handler whose group committed past it
// elsewhere, mid-frame.
type partitionLog struct {
	mu     sync.Mutex
	np     int
	recs   []feed.Interval // recs[i] is record base+i
	base   int             // records below base are released
	free   []feed.Interval // released records, whose columns spare hands out
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
		S: uint32(s), Base: uint64((l.base + len(l.recs)) * l.np), Pairs: uint32(l.np),
		C: c, Cbar: cbar, Kind: kind,
	})
}

// end returns the newest assigned offset (0 when empty).
func (l *partitionLog) end() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64((l.base + len(l.recs)) * l.np)
}

// records returns the number of logged intervals — a processor's
// cursor into the matrix log.
func (l *partitionLog) records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + len(l.recs)
}

// read copies into buf's columns the signals at offsets [next,
// next+max) that lie in next's interval, and reports whether the log
// is sealed with nothing at or after next. A next below the first
// retained record reads from that record, and the subscriber counts the
// skip as a jump. Two cursors can lie there: a handler's whose group
// committed past the floor, so its group consumed what it skips; and
// the first cursor of a group created after the floor moved, which
// replays from the oldest record kept (DESIGN.md §7).
func (l *partitionLog) read(next uint64, max int, buf *feed.Interval) (iv feed.Interval, drained bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next < 1 {
		next = 1
	}
	i, first := int(next-1)/l.np-l.base, int(next-1)%l.np
	if i < 0 {
		i, first = 0, 0
	}
	if i >= len(l.recs) {
		return feed.Interval{}, l.sealed
	}
	iv = l.recs[i].From(first)
	n := min(iv.Len(), max)
	buf.C = append(buf.C[:0], iv.C[:n]...)
	buf.Cbar = append(buf.Cbar[:0], iv.Cbar[:n]...)
	buf.Kind = append(buf.Kind[:0], iv.Kind[:n]...)
	iv.C, iv.Cbar, iv.Kind = buf.C, buf.Cbar, buf.Kind
	return iv, false
}

// lag returns how many signals a handler whose cursor is next has yet
// to send: those at or after next, less the released ones, which read
// skips.
func (l *partitionLog) lag(next uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := uint64((l.base + len(l.recs)) * l.np)
	from := max(next, uint64(l.base*l.np)+1)
	if from > end {
		return 0
	}
	return end - from + 1
}

// tail copies the headers of the last ≤ w records at or before offset
// end, the ring source for a relaunched processor (w = W). The headers
// are copied because a release can still run for the generation the
// lease moved away from (Broker.apply carries effects out after the
// lock), and it shifts the records it keeps within recs. The columns
// the copies point to stay put: that release's floor is W records
// below the same end, and only the new generation moves it further. So
// reading a released record here is a broken floor and panics, as the
// input log does.
func (l *partitionLog) tail(end uint64, w int) []feed.Interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(int(end)/l.np, l.base+len(l.recs))
	lo := max(0, n-w)
	if lo < l.base {
		panic(fmt.Sprintf("broker: partition record %d read after release below %d", lo, l.base))
	}
	return slices.Clone(l.recs[lo-l.base : n-l.base])
}

// release drops every record below record floor, keeping their columns
// for spare. The retained records move to the front, so the record
// array is reused too. It can run after the lease moved on, while the
// new generation rebuilds from tail's copies.
func (l *partitionLog) release(floor int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := min(floor-l.base, len(l.recs)); k > 0 {
		l.free = append(l.free, l.recs[:k]...)
		n := copy(l.recs, l.recs[k:])
		clear(l.recs[n:])
		l.recs = l.recs[:n]
		l.base += k
	}
}

// spare hands out a released record's columns for the processor's next
// interval, or nothing when none is free.
func (l *partitionLog) spare() (cols feed.Interval) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.free) - 1; k >= 0 {
		cols, l.free[k] = l.free[k], feed.Interval{}
		l.free = l.free[:k]
	}
	return cols
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
