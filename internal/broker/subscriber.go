package broker

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"marketminer/internal/feed"
	"marketminer/internal/supervise"
)

// subscriberIdle is the per-frame read deadline: a session silent for
// longer (no frame, not even the broker's Config.Heartbeat keep-alive)
// is presumed dead and redialed. A variable only so tests can shorten
// it.
var subscriberIdle = 15 * time.Second

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
	// Dial opens a connection to the broker (required); feed.Dialer
	// dials TCP. Wrap with chaos.Dialer to fault-inject the wire.
	Dial feed.DialFunc
	// Backoff is the reconnect delay after the first failed session
	// (default 20ms); consecutive failures double it up to 32×Backoff,
	// each delay jittered in [d/2, d] (supervise.Redial).
	Backoff time.Duration
	// MaxAttempts caps consecutive sessions that fail without
	// delivering a new signal (0 = retry until ctx death or End).
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
	signals  map[int][]feed.Interval // delivered runs per partition, delivery order
	stocks   int                     // topology of the last Assign …
	pairs    [][]int                 // … and the partitions' pair ids it implies
	stats    SubscriberStats
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
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Subscriber{
		cfg:      cfg,
		next:     make(map[int]uint64),
		acked:    make(map[int]uint64),
		sinceAck: make(map[int]int),
		signals:  make(map[int][]feed.Interval),
	}, nil
}

// Run consumes until the broker sends End (returns nil), the context
// dies, or MaxAttempts consecutive sessions fail without delivering a
// new signal. Wire faults and silent links trigger resubscription from
// the last delivered offsets.
func (s *Subscriber) Run(ctx context.Context) error {
	err := supervise.Retry(ctx, supervise.Redial(s.cfg.Backoff, s.cfg.MaxAttempts), func(ctx context.Context, progress func()) error {
		err := s.session(ctx, progress)
		if err != nil && ctx.Err() == nil {
			s.cfg.Logf("broker: subscriber %q session failed: %v", s.cfg.Member, err)
		}
		return err
	})
	var ce *supervise.CircuitError
	if errors.As(err, &ce) {
		return fmt.Errorf("broker: subscriber %q gave up after %d sessions: %w", s.cfg.Member, ce.Failures, ce.Last)
	}
	return err
}

// session runs one connection until End (nil) or a failure; every
// frame that delivers a new signal reports progress.
func (s *Subscriber) session(ctx context.Context, progress func()) error {
	conn, err := s.cfg.Dial(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()

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
		return err
	}
	dec := feed.NewDecoder(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(subscriberIdle))
		fr, err := dec.Read()
		if err != nil {
			return err
		}
		delivered := 0
		switch f := fr.(type) {
		case *feed.Assign:
			s.mu.Lock()
			s.stats.Assigns++
			if int(f.Stocks) != s.stocks || int(f.NumPartitions) != len(s.pairs) {
				s.stocks, s.pairs = int(f.Stocks), partitionPairs(int(f.Stocks), int(f.NumPartitions))
			}
			s.mu.Unlock()
		case *feed.SnapshotFrame:
			delivered, err = s.deliver(enc, int(f.Partition), f.Interval, true, false)
		case *feed.DeltaFrame:
			delivered, err = s.deliver(enc, int(f.Partition), f.Interval, false, f.Sealed)
		case *feed.Heartbeat:
			// liveness only
		case *feed.End:
			s.flushAcks(enc)
			return nil
		default:
			return fmt.Errorf("broker: unexpected frame %T", fr)
		}
		if delivered > 0 {
			progress() // even if the ack after it failed
		}
		if err != nil {
			return err
		}
	}
}

// deliver applies one Snapshot or Delta: it suppresses redeliveries
// below the watermark, retains and announces the rest, and acks every
// AckEvery deliveries. It returns how many signals were new.
//
// A snapshot is the partition's newest interval, the latest signal per
// pair. Snapshots only arrive when this member has no progress on the
// partition, so the watermark jump cannot skip anything it was owed; a
// stale one after progress is ignored.
func (s *Subscriber) deliver(enc *feed.Encoder, p int, iv feed.Interval, snapshot, sealed bool) (int, error) {
	var ackAt uint64
	s.mu.Lock()
	if p >= len(s.pairs) || iv.Len() > 0 && int(iv.Pairs) != len(s.pairs[p]) {
		s.mu.Unlock()
		return 0, fmt.Errorf("broker: partition %d interval of %d pairs does not fit the assigned topology", p, iv.Pairs)
	}
	pairs := s.pairs[p]
	start := iv.Base + uint64(iv.First) + 1 // offset of column index 0
	switch {
	case snapshot && s.next[p] != 0:
		s.mu.Unlock()
		return 0, nil // stale snapshot after progress; ignore
	case snapshot:
		s.stats.Snapshots++
		s.next[p] = start
	case s.next[p] == 0:
		s.next[p] = 1
	}
	if n := iv.Len(); n > 0 && start < s.next[p] {
		dup := int(min(s.next[p]-start, uint64(n)))
		s.stats.Duplicates += dup
		iv = iv.From(dup)
		start += uint64(dup)
	}
	if n := iv.Len(); n > 0 {
		// Offsets are contiguous within one tenure of a partition, but
		// the group commit can advance while the partition was assigned
		// elsewhere: another member delivered and acked the range in
		// between, so resuming past it is group-level consumption, not
		// loss. Count the jump (fixed-membership tests assert zero) and
		// move the watermark forward.
		if start > s.next[p] {
			s.stats.Jumps++
		}
		s.next[p] = iv.End() + 1
		s.stats.Delivered += n
		// A range continuing the newest retained run extends it; anything
		// else (a new interval, a jump) starts a run. Partitions lists
		// what has a run, and a frame of redeliveries delivers nothing.
		runs := s.signals[p]
		if last := len(runs) - 1; last >= 0 && runs[last].Base == iv.Base && runs[last].End()+1 == start {
			r := &runs[last]
			r.C, r.Cbar, r.Kind = append(r.C, iv.C...), append(r.Cbar, iv.Cbar...), append(r.Kind, iv.Kind...)
		} else {
			s.signals[p] = append(runs, iv)
		}
		if !snapshot {
			if s.sinceAck[p] += n; s.sinceAck[p] >= s.cfg.AckEvery {
				// The ack lands on the signal that filled the count, as
				// if the range had been counted one signal at a time.
				over := s.sinceAck[p] % s.cfg.AckEvery
				ackAt, s.sinceAck[p] = iv.End()-uint64(over), over
			}
		}
	}
	if sealed && s.next[p] > 1 {
		ackAt = s.next[p] - 1 // seal flushes the partition's tail ack
		s.sinceAck[p] = 0
	}
	s.mu.Unlock()
	if s.cfg.OnSignal != nil {
		for i := 0; i < iv.Len(); i++ {
			s.cfg.OnSignal(p, signalAt(&iv, pairs, i))
		}
	}
	if ackAt > 0 {
		if err := enc.WriteAck(&feed.AckFrame{Partition: uint16(p), Offset: ackAt}); err != nil {
			return iv.Len(), err
		}
		s.mu.Lock()
		s.acked[p] = ackAt
		s.stats.Acked++
		s.mu.Unlock()
	}
	return iv.Len(), nil
}

// signalAt materialises column index i of a run; pairs is its
// partition's pair table.
func signalAt(iv *feed.Interval, pairs []int, i int) feed.Signal {
	at := int(iv.First) + i
	return feed.Signal{
		Offset: iv.Base + uint64(at) + 1, Pair: uint32(pairs[at]), S: iv.S,
		Kind: iv.Kind[i], C: iv.C[i], Cbar: iv.Cbar[i],
	}
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
// order, materialised from the retained columns.
func (s *Subscriber) Signals(part int) []feed.Signal {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := s.signals[part]
	if runs == nil {
		return nil
	}
	n := 0
	for i := range runs {
		n += runs[i].Len()
	}
	out := make([]feed.Signal, 0, n)
	for i := range runs {
		for j := 0; j < runs[i].Len(); j++ {
			out = append(out, signalAt(&runs[i], s.pairs[part], j))
		}
	}
	return out
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
