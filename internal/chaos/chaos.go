// Package chaos is the deterministic fault-injection harness of the
// robustness layer: net.Conn/listener/dialer wrappers and a
// QuoteSource wrapper that inject byte corruption, mid-stream
// disconnects, delays, partitions, and quote drops/duplicates/reorders
// from a seeded schedule.
//
// Every fault decision is a pure function of (seed, connection id,
// direction, event index) through a splitmix64-style hash, so a
// schedule is replayable byte-for-byte regardless of read chunking,
// heartbeat timing, or goroutine interleaving: the same seed always
// corrupts the same byte offsets of the same connections. That is what
// turns "the pipeline survived a flaky network once" into a regression
// test.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Spec is a seeded fault schedule. The zero value injects nothing.
// Byte-level faults (corrupt/cut/delay) apply to wrapped connections;
// rate-based faults (drop/dup/reorder) apply to wrapped quote sources.
// "Every" fields are mean gaps: events fire at deterministic offsets
// drawn uniformly from [1, 2·every].
type Spec struct {
	// Seed drives every fault decision. Two runs with the same seed
	// replay the same schedule.
	Seed int64
	// CorruptEvery is the mean number of bytes between single-bit
	// flips on a connection (per direction). 0 disables.
	CorruptEvery int64
	// CutEvery is the mean number of bytes between injected mid-stream
	// disconnects. 0 disables.
	CutEvery int64
	// DelayEvery is the mean gap (bytes on connections, quotes on
	// sources) between injected delays of up to MaxDelay. 0 disables.
	DelayEvery int64
	// MaxDelay bounds each injected delay.
	MaxDelay time.Duration
	// PartitionEvery refuses roughly one in PartitionEvery connection
	// attempts outright, simulating a network partition the client
	// must retry through. 0 disables.
	PartitionEvery int64
	// DropRate / DupRate / ReorderRate are per-quote probabilities for
	// the QuoteSource wrapper.
	DropRate    float64
	DupRate     float64
	ReorderRate float64
}

// Active reports whether the spec injects any fault at all.
func (s Spec) Active() bool {
	return s.CorruptEvery > 0 || s.CutEvery > 0 || s.DelayEvery > 0 ||
		s.PartitionEvery > 0 || s.DropRate > 0 || s.DupRate > 0 || s.ReorderRate > 0
}

// String renders the spec in ParseSpec format.
func (s Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.CorruptEvery > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%d", s.CorruptEvery))
	}
	if s.CutEvery > 0 {
		parts = append(parts, fmt.Sprintf("cut=%d", s.CutEvery))
	}
	if s.DelayEvery > 0 {
		parts = append(parts, fmt.Sprintf("delay=%d:%s", s.DelayEvery, s.MaxDelay))
	}
	if s.PartitionEvery > 0 {
		parts = append(parts, fmt.Sprintf("partition=%d", s.PartitionEvery))
	}
	if s.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", s.DropRate))
	}
	if s.DupRate > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", s.DupRate))
	}
	if s.ReorderRate > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g", s.ReorderRate))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the -chaos flag syntax: comma-separated key=value
// pairs, e.g. "seed=7,corrupt=8192,cut=65536,delay=4096:2ms,
// partition=5,drop=0.01,dup=0.01,reorder=0.02". Unknown keys are
// errors so typos never silently disable a fault.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if strings.TrimSpace(text) == "" {
		return s, fmt.Errorf("chaos: empty spec")
	}
	seen := make(map[string]bool)
	for _, kv := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return s, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		if seen[key] {
			return s, fmt.Errorf("chaos: duplicate key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "corrupt":
			s.CorruptEvery, err = parseEvery(val)
		case "cut":
			s.CutEvery, err = parseEvery(val)
		case "delay":
			gap, durText, ok := strings.Cut(val, ":")
			if !ok {
				return s, fmt.Errorf("chaos: delay wants gap:duration, got %q", val)
			}
			if s.DelayEvery, err = parseEvery(gap); err == nil {
				s.MaxDelay, err = time.ParseDuration(durText)
			}
		case "partition":
			s.PartitionEvery, err = parseEvery(val)
		case "drop":
			s.DropRate, err = parseRate(val)
		case "dup":
			s.DupRate, err = parseRate(val)
		case "reorder":
			s.ReorderRate, err = parseRate(val)
		default:
			return s, fmt.Errorf("chaos: unknown key %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("chaos: bad %s value %q: %v", key, val, err)
		}
	}
	if s.DelayEvery > 0 && s.MaxDelay <= 0 {
		return s, fmt.Errorf("chaos: delay needs a positive duration")
	}
	return s, nil
}

func parseEvery(val string) (int64, error) {
	v, err := strconv.ParseInt(val, 10, 64)
	if err == nil && v <= 0 {
		err = fmt.Errorf("must be positive")
	}
	return v, err
}

func parseRate(val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err == nil && !(v >= 0 && v <= 1) { // NaN fails both bounds
		err = fmt.Errorf("must be in [0,1]")
	}
	return v, err
}

// Stats counts the faults a Chaos instance actually injected; tests
// assert on it so a "survived chaos" result cannot come from a
// schedule that never fired.
type Stats struct {
	Conns       int64 // connections wrapped (incl. partitioned attempts)
	Partitions  int64 // connection attempts refused
	Corruptions int64
	Cuts        int64
	Delays      int64
	Drops       int64
	Dups        int64
	Reorders    int64
}

// Chaos mints deterministic fault schedules from one Spec. Each
// wrapped connection gets a sequential id; the (seed, id) pair fixes
// its entire fault schedule at birth.
type Chaos struct {
	spec   Spec
	nextID atomic.Int64

	conns      atomic.Int64
	partitions atomic.Int64
	corrupts   atomic.Int64
	cuts       atomic.Int64
	delays     atomic.Int64
	drops      atomic.Int64
	dups       atomic.Int64
	reorders   atomic.Int64
}

// New builds a fault injector over spec.
func New(spec Spec) *Chaos { return &Chaos{spec: spec} }

// Spec returns the schedule this injector was built from.
func (c *Chaos) Spec() Spec { return c.spec }

// Stats snapshots the injected-fault counters.
func (c *Chaos) Stats() Stats {
	return Stats{
		Conns:       c.conns.Load(),
		Partitions:  c.partitions.Load(),
		Corruptions: c.corrupts.Load(),
		Cuts:        c.cuts.Load(),
		Delays:      c.delays.Load(),
		Drops:       c.drops.Load(),
		Dups:        c.dups.Load(),
		Reorders:    c.reorders.Load(),
	}
}

// Fault kinds, mixed into the hash so each fault type draws an
// independent deterministic event stream.
const (
	kindCorrupt = 1 + iota
	kindCorruptBit
	kindCut
	kindDelay
	kindDelayDur
	kindPartition
	kindDrop
	kindDup
	kindReorder
	kindSourceDelay
)

// mix is a splitmix64 finalization chain: a tiny, well-dispersed hash
// whose output depends on every input word. It is the entire source of
// randomness in this package — no global rand, no time.
func mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h += w
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// hashRate maps a hash to [0,1) for rate-based decisions.
func hashRate(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// gap draws the i-th inter-event gap for a fault kind: uniform in
// [1, 2·every], so events fire at mean spacing `every`.
func gap(seed uint64, kind, i uint64, every int64) int64 {
	return 1 + int64(mix(seed, kind, i)%uint64(2*every))
}

// eventStream walks the deterministic offsets of one fault kind on one
// connection direction.
type eventStream struct {
	seed  uint64
	kind  uint64
	every int64
	next  int64 // absolute offset of the next event; -1 when disabled
	n     uint64
}

func newEventStream(seed uint64, kind uint64, every int64) eventStream {
	s := eventStream{seed: seed, kind: kind, every: every, next: -1}
	if every > 0 {
		s.next = gap(seed, kind, 0, every)
		s.n = 1
	}
	return s
}

// hits reports whether the next event lands strictly before offset
// `end`, i.e. inside the window [start, end).
func (s *eventStream) hits(end int64) bool { return s.next >= 0 && s.next < end }

func (s *eventStream) advance() {
	s.next += gap(s.seed, s.kind, s.n, s.every)
	s.n++
}
