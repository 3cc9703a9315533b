package broker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"marketminer/internal/feed"
)

// SubscriberConfig tunes a Subscriber.
type SubscriberConfig struct {
	// Group and Member identify this consumer (both required).
	Group, Member string
	// FromStart requests a full replay from offset 1 instead of the
	// compacted snapshot on first subscribe.
	FromStart bool
	// AckEvery commits after this many delivered signals per partition
	// (default 64); a final ack always flushes on End.
	AckEvery int
	// Dial opens a connection to the broker (required). Wrap with
	// chaos.Dialer to fault-inject the wire.
	Dial func(ctx context.Context) (net.Conn, error)
	// Backoff and MaxBackoff bound the reconnect delay (defaults
	// 20ms, 500ms).
	Backoff, MaxBackoff time.Duration
	// MaxAttempts caps consecutive failed sessions (0 = retry until ctx
	// death or End).
	MaxAttempts int
	// OnSignal, when set, observes every newly delivered signal in
	// delivery order (called from the subscriber goroutine).
	OnSignal func(part int, sig feed.Signal)
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// SubscriberStats counts one subscriber's session history.
type SubscriberStats struct {
	Connects   int // sessions that completed the GroupSub handshake
	Reconnects int // sessions after the first
	Snapshots  int // snapshot frames applied
	Delivered  int // signals delivered exactly once
	Duplicates int // redelivered signals suppressed by the offset watermark
	Acked      int // ack frames sent
	Assigns    int // assignment announcements observed
	Jumps      int // forward offset jumps (ranges consumed group-side by another member)
}

// Subscriber is a resuming consumer-group client. Across reconnects it
// carries its per-partition delivered-offset watermark, so redelivered
// signals (a session cut after delivery but before ack) are suppressed
// and the observed stream is exactly-once in delivery order.
type Subscriber struct {
	cfg SubscriberConfig

	mu       sync.Mutex
	next     map[int]uint64 // next expected offset per partition
	acked    map[int]uint64
	sinceAck map[int]int
	signals  map[int]*chunkLog[feed.Signal] // delivered signals per partition
	stats    SubscriberStats
	ended    bool
}

// NewSubscriber validates cfg and builds a Subscriber.
func NewSubscriber(cfg SubscriberConfig) (*Subscriber, error) {
	if cfg.Group == "" || cfg.Member == "" {
		return nil, errors.New("broker: subscriber needs Group and Member")
	}
	if cfg.Dial == nil {
		return nil, errors.New("broker: subscriber needs a Dial function")
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 64
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 20 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Subscriber{
		cfg:      cfg,
		next:     make(map[int]uint64),
		acked:    make(map[int]uint64),
		sinceAck: make(map[int]int),
		signals:  make(map[int]*chunkLog[feed.Signal]),
	}, nil
}

// Run consumes until the broker sends End (returns nil), the context
// dies, or MaxAttempts consecutive sessions fail. Wire faults trigger
// resubscription from the last delivered offsets.
func (s *Subscriber) Run(ctx context.Context) error {
	backoff := s.cfg.Backoff
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		done, err := s.session(ctx)
		if done {
			return nil
		}
		attempts++
		if s.cfg.MaxAttempts > 0 && attempts >= s.cfg.MaxAttempts {
			return fmt.Errorf("broker: subscriber %q gave up after %d sessions: %w", s.cfg.Member, attempts, err)
		}
		s.cfg.Logf("broker: subscriber %q session failed (%v); retrying in %v", s.cfg.Member, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > s.cfg.MaxBackoff {
			backoff = s.cfg.MaxBackoff
		}
	}
}

// session runs one connection. done=true means End was received.
func (s *Subscriber) session(ctx context.Context) (done bool, err error) {
	conn, err := s.cfg.Dial(ctx)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	s.mu.Lock()
	offsets := make([]feed.PartitionOffset, 0, len(s.next))
	for p, n := range s.next {
		if n > 1 {
			offsets = append(offsets, feed.PartitionOffset{Partition: uint16(p), Offset: n - 1})
		}
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i].Partition < offsets[j].Partition })
	s.stats.Connects++
	if s.stats.Connects > 1 {
		s.stats.Reconnects++
	}
	s.mu.Unlock()

	enc := feed.NewEncoder(conn, nil)
	if err := enc.WriteGroupSub(&feed.GroupSub{
		Group:     s.cfg.Group,
		Member:    s.cfg.Member,
		FromStart: s.cfg.FromStart,
		Offsets:   offsets,
	}); err != nil {
		return false, err
	}
	dec := feed.NewDecoder(conn)
	for {
		fr, err := dec.Read()
		if err != nil {
			return false, err
		}
		switch f := fr.(type) {
		case *feed.Assign:
			s.mu.Lock()
			s.stats.Assigns++
			s.mu.Unlock()
		case *feed.SnapshotFrame:
			s.applySnapshot(f)
		case *feed.DeltaFrame:
			if err := s.applyDelta(enc, f); err != nil {
				return false, err
			}
		case *feed.Heartbeat:
			// liveness only
		case *feed.End:
			s.flushAcks(enc)
			s.mu.Lock()
			s.ended = true
			s.mu.Unlock()
			return true, nil
		default:
			return false, fmt.Errorf("broker: unexpected frame %T", fr)
		}
	}
}

// applySnapshot installs a compacted partition state: the latest
// signal per pair, current as of EndOffset. Snapshots only arrive when
// this member has no progress on the partition, so the watermark jump
// cannot skip anything it was owed.
func (s *Subscriber) applySnapshot(f *feed.SnapshotFrame) {
	p := int(f.Partition)
	s.mu.Lock()
	if s.next[p] != 0 {
		s.mu.Unlock()
		return // stale snapshot after progress; ignore
	}
	s.next[p] = f.EndOffset + 1
	kept := s.retained(p)
	for _, sig := range f.Latest {
		kept.append(sig)
	}
	s.stats.Snapshots++
	s.stats.Delivered += len(f.Latest)
	s.mu.Unlock()
	if s.cfg.OnSignal != nil {
		for _, sig := range f.Latest {
			s.cfg.OnSignal(p, sig)
		}
	}
}

// applyDelta delivers new signals, suppresses redeliveries below the
// watermark, and acks every AckEvery deliveries.
func (s *Subscriber) applyDelta(enc *feed.Encoder, f *feed.DeltaFrame) error {
	p := int(f.Partition)
	var ackAt uint64
	// The frame came off the decoder for this call alone, so the
	// signals that are new are compacted to its front in place.
	fresh := f.Signals[:0]
	s.mu.Lock()
	if s.next[p] == 0 {
		s.next[p] = 1
	}
	var kept *chunkLog[feed.Signal]
	for _, sig := range f.Signals {
		if sig.Offset < s.next[p] {
			s.stats.Duplicates++
			continue
		}
		// Offsets are contiguous within one tenure of a partition, but
		// the group commit can advance while the partition was assigned
		// elsewhere: another member delivered and acked the range in
		// between, so resuming past it is group-level consumption, not
		// loss. Count the jump (fixed-membership tests assert zero) and
		// move the watermark forward.
		if sig.Offset > s.next[p] {
			s.stats.Jumps++
		}
		s.next[p] = sig.Offset + 1
		if kept == nil {
			// Only now: Partitions lists what has a store, and a frame
			// of redeliveries delivers nothing.
			kept = s.retained(p)
		}
		kept.append(sig)
		s.stats.Delivered++
		fresh = append(fresh, sig)
		s.sinceAck[p]++
		if s.sinceAck[p] >= s.cfg.AckEvery {
			s.sinceAck[p] = 0
			ackAt = sig.Offset
		}
	}
	if f.Sealed && s.next[p] > 1 {
		ackAt = s.next[p] - 1 // seal flushes the partition's tail ack
		s.sinceAck[p] = 0
	}
	s.mu.Unlock()
	if s.cfg.OnSignal != nil {
		for _, sig := range fresh {
			s.cfg.OnSignal(p, sig)
		}
	}
	if ackAt > 0 {
		if err := enc.WriteAck(&feed.AckFrame{Partition: uint16(p), Offset: ackAt}); err != nil {
			return err
		}
		s.mu.Lock()
		s.acked[p] = ackAt
		s.stats.Acked++
		s.mu.Unlock()
	}
	return nil
}

// flushAcks commits every partition's final watermark (End path).
func (s *Subscriber) flushAcks(enc *feed.Encoder) {
	s.mu.Lock()
	type pa struct {
		p   int
		off uint64
	}
	var pending []pa
	for p, n := range s.next {
		if n > 1 && s.acked[p] < n-1 {
			pending = append(pending, pa{p, n - 1})
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].p < pending[j].p })
	s.mu.Unlock()
	for _, a := range pending {
		if enc.WriteAck(&feed.AckFrame{Partition: uint16(a.p), Offset: a.off}) != nil {
			return
		}
		s.mu.Lock()
		s.acked[a.p] = a.off
		s.stats.Acked++
		s.mu.Unlock()
	}
}

// Stats returns a copy of the session counters.
func (s *Subscriber) Stats() SubscriberStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Signals returns the delivered stream of one partition in delivery
// order (a copy).
func (s *Subscriber) Signals(part int) []feed.Signal {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.signals[part]
	if kept == nil {
		return nil
	}
	return kept.appendTo(make([]feed.Signal, 0, kept.len()), 0, kept.len())
}

// retained returns partition p's delivered-signal store, creating it
// on first use. Caller holds s.mu.
func (s *Subscriber) retained(p int) *chunkLog[feed.Signal] {
	kept := s.signals[p]
	if kept == nil {
		kept = &chunkLog[feed.Signal]{}
		s.signals[p] = kept
	}
	return kept
}

// Partitions returns the partitions this subscriber has received
// signals for, ascending.
func (s *Subscriber) Partitions() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.signals))
	for p := range s.signals {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
