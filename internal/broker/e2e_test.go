package broker

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"marketminer/internal/chaos"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
)

// e2eResult is one member's complete observed state after End.
type e2eResult struct {
	sub *Subscriber
	err error
}

// runGroupE2E drives the full acceptance scenario: a 3-member consumer
// group over 4 partitions on a real TCP listener, partition 1's
// processor hard-killed mid-day, optionally with chaos corrupt/cut on
// every subscriber connection. It returns the members keyed by id.
func runGroupE2E(t *testing.T, spec chaos.Spec, rets [][]float64) map[string]*Subscriber {
	t.Helper()
	cfg := testConfig()
	cfg.MemberGrace = 30 * time.Second // reconnects must never reshuffle
	cfg.MaxDelta = 7
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr.String())
	}
	if spec.Active() {
		dial = chaos.New(spec).Dialer(dial)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	members := []string{"m-0", "m-1", "m-2"}
	subs := make(map[string]*Subscriber, len(members))
	done := make(chan e2eResult, len(members))
	for _, id := range members {
		sub, err := NewSubscriber(SubscriberConfig{
			Group:     "g",
			Member:    id,
			FromStart: true,
			AckEvery:  5,
			Dial:      dial,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		subs[id] = sub
		go func() { done <- e2eResult{sub, sub.Run(ctx)} }()
	}

	// All members must be in the group before signals flow, so the
	// assignment (and therefore each member's stream) is deterministic.
	waitFor(t, func() (in bool) {
		b.apply(nil, func(st *brokerState) {
			g := st.groups["g"]
			in = g != nil && len(g.members) == len(members)
		})
		return in
	})

	for s := 0; s < len(rets)/2; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return b.parts[1].log.end() > 0 })
	rebalBefore := metrics.Counter("broker.rebalances").Value()
	b.KillPartition(1)
	waitFor(t, func() bool { return metrics.Counter("broker.rebalances").Value() > rebalBefore })
	for s := len(rets) / 2; s < len(rets); s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()

	for range members {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("subscriber failed: %v", r.err)
			}
		case <-ctx.Done():
			t.Fatal("subscribers did not finish in time")
		}
	}
	return subs
}

// TestE2EGroupKillRebalance is the acceptance scenario without wire
// faults: after a mid-day processor kill and rebalance, every member's
// delivered stream must be byte-identical to the unfaulted run.
func TestE2EGroupKillRebalance(t *testing.T) {
	rets := testReturns(8, 40)
	want := referenceLogs(t, testConfig(), rets)
	subs := runGroupE2E(t, chaos.Spec{}, rets)
	assertStreams(t, subs, want)
}

// TestE2EGroupKillRebalanceChaos repeats the scenario with bit flips
// and mid-stream cuts injected on every subscriber connection: frames
// that survive CRC are delivered; everything else forces resubscribe,
// and the committed streams must still match bit for bit.
func TestE2EGroupKillRebalanceChaos(t *testing.T) {
	rets := testReturns(8, 40)
	want := referenceLogs(t, testConfig(), rets)
	subs := runGroupE2E(t, chaos.Spec{Seed: 42, CorruptEvery: 64 << 10, CutEvery: 96 << 10}, rets)
	assertStreams(t, subs, want)
	cut := false
	for _, sub := range subs {
		if sub.Stats().Reconnects > 0 {
			cut = true
		}
	}
	if !cut {
		t.Log("warning: chaos schedule injected no reconnects at this stream size")
	}
}

// assertStreams checks the acceptance criterion: each member's
// per-partition delivered stream equals the unfaulted partition log
// exactly — same signals, same order, same offsets, same float bits —
// and the three members cover the four partitions round-robin.
func assertStreams(t *testing.T, subs map[string]*Subscriber, want [][]feed.Signal) {
	t.Helper()
	assignment := map[string][]int{"m-0": {0, 3}, "m-1": {1}, "m-2": {2}}
	for id, parts := range assignment {
		sub := subs[id]
		for _, p := range parts {
			sameSignals(t, id, sub.Signals(p), want[p])
		}
		got := sub.Partitions()
		if len(got) != len(parts) {
			t.Fatalf("%s received partitions %v, want %v", id, got, parts)
		}
		st := sub.Stats()
		if st.Delivered == 0 || st.Acked == 0 {
			t.Fatalf("%s: stats %+v look dead", id, st)
		}
		if st.Jumps != 0 {
			t.Fatalf("%s: offsets jumped under fixed membership: %+v", id, st)
		}
	}
}

// TestReassignAwayAndBackNoLoss: a member that loses a partition to a
// joining member mid-session and later wins it back (grace sweep) must
// resume delivery from its in-session watermark — not re-take the
// compacted-snapshot path, which would jump the server cursor over
// every signal appended in between. The member never acks (AckEvery is
// huge), so the group commit stays 0 and only the connection watermark
// stands between the resume rule and silent loss.
func TestReassignAwayAndBackNoLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Partitions = 2
	cfg.MemberGrace = 50 * time.Millisecond
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubscriber(SubscriberConfig{
		Group: "g", Member: "m-a",
		AckEvery: 1 << 30, // never ack mid-day: commit must not mask the watermark
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.String())
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sub.Run(ctx) }()

	rets := testReturns(8, 40)
	waitFor(t, func() bool { return sub.Stats().Assigns >= 1 })
	for s := 0; s < 20; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(sub.Signals(1)) > 0 })

	// "m-b" sorts after "m-a": partition 1 moves to it, partition 0
	// stays here.
	g, session := b.joinGroup("g", "m-b")
	waitFor(t, func() bool { return sub.Stats().Assigns >= 2 })

	// Signals appended while the partition is assigned elsewhere are
	// exactly the range the old snapshot path skipped.
	mark := b.parts[1].log.end()
	for s := 20; s < 30; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return b.parts[1].log.end() > mark })

	// m-b leaves; once MemberGrace expires the sweep rebalances
	// partition 1 back to m-a.
	b.leaveGroup(g, "m-b", session)
	waitFor(t, func() bool { return sub.Stats().Assigns >= 3 })

	for s := 30; s < 40; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	logs := drainLogs(t, b)
	for p := range logs {
		sameSignals(t, "partition", sub.Signals(p), logs[p])
	}
	st := sub.Stats()
	if st.Jumps != 0 {
		t.Fatalf("delivery jumped offsets: %+v", st)
	}
	if st.Reconnects != 0 {
		t.Fatalf("reassignment should not need reconnects: %+v", st)
	}
}

// TestEmptyAssignmentGetsEnd: with more members than partitions, the
// member left holding nothing must still receive End once the day is
// drained — not heartbeat forever while its Run blocks.
func TestEmptyAssignmentGetsEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Partitions = 1
	// A long grace keeps the first member's assignment in place after
	// its Run returns: the empty member must get End on its own merits,
	// not by inheriting the partition from a sweep.
	cfg.MemberGrace = time.Hour
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	feedAll(t, b, testReturns(8, 20))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := b.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-register both members so neither connection ever sees a
	// single-member group: "m-b" computes an empty assignment from the
	// first Assign on.
	b.joinGroup("g", "m-a")
	b.joinGroup("g", "m-b")
	done := make(chan error, 2)
	for _, id := range []string{"m-a", "m-b"} {
		sub, err := NewSubscriber(SubscriberConfig{
			Group: "g", Member: id,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr.String())
			},
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- sub.Run(ctx) }()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("subscriber did not end cleanly: %v", err)
			}
		case <-ctx.Done():
			t.Fatal("a member with an empty assignment never received End")
		}
	}
}

// TestPairlessPartitionLogsNothingAndSeals: the hash leaves some
// partitions of a small universe without pairs (N=4 in 4 partitions).
// Such a partition must log nothing — no offsets without signals behind
// them — so its member gets the sealed Delta and End in one session
// instead of waiting on, or being evicted for, a lag it can never drain.
func TestPairlessPartitionLogsNothingAndSeals(t *testing.T) {
	cfg := testConfig()
	cfg.N, cfg.Partitions = 4, 4
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	feedAll(t, b, testReturns(cfg.N, 40))
	full := drainLogs(t, b)
	pairless := 0
	for p := range full {
		if len(b.PartitionPairs(p)) == 0 {
			pairless++
			if end := b.parts[p].log.end(); end != 0 {
				t.Fatalf("pair-less partition %d logged up to offset %d", p, end)
			}
		}
	}
	if pairless == 0 {
		t.Fatal("fixture lost its pair-less partition; pick another N/Partitions")
	}
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubscriber(SubscriberConfig{
		Group: "g", Member: "m", FromStart: true,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sub.Run(ctx); err != nil {
		t.Fatalf("subscriber did not reach End: %v", err)
	}
	if st := sub.Stats(); st.Connects != 1 || st.Delivered != totalLen(full) {
		t.Fatalf("connects %d delivered %d, want 1 and %d", st.Connects, st.Delivered, totalLen(full))
	}
	for p := range full {
		sameSignals(t, "pair-less universe", sub.Signals(p), full[p])
	}
}

// TestSnapshotOnSubscribe: a member joining after the day is done gets
// the compacted snapshot — the log's last interval, which is the
// latest signal of every pair — plus End, not the full log.
func TestSnapshotOnSubscribe(t *testing.T) {
	cfg := testConfig()
	rets := testReturns(8, 40)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	feedAll(t, b, rets)
	full := drainLogs(t, b)
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snapBefore := metrics.Counter("broker.snapshot_sends").Value()
	sub, err := NewSubscriber(SubscriberConfig{
		Group: "late", Member: "viewer",
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sub.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.Snapshots != b.NumPartitions() {
		t.Fatalf("snapshots %d, want %d", st.Snapshots, b.NumPartitions())
	}
	if got := metrics.Counter("broker.snapshot_sends").Value(); got-snapBefore != int64(b.NumPartitions()) {
		t.Fatalf("snapshot_sends delta %d, want %d", got-snapBefore, b.NumPartitions())
	}
	totalPairs := 0
	for p := range full {
		np := len(b.PartitionPairs(p))
		latest := full[p][len(full[p])-np:]
		for i, sg := range latest {
			if int(sg.Pair) != b.PartitionPairs(p)[i] || sg.S != latest[0].S {
				t.Fatalf("partition %d: last interval is not one signal per pair, ascending: %+v", p, latest)
			}
		}
		sameSignals(t, "snapshot", sub.Signals(p), latest)
		totalPairs += np
	}
	if st.Delivered != totalPairs {
		t.Fatalf("delivered %d, want compacted %d (full log is %d)", st.Delivered, totalPairs, totalLen(full))
	}
}

func totalLen(logs [][]feed.Signal) int {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	return n
}

// TestEvictionOfLaggingSubscriber: a subscriber whose cursor lags the
// log end beyond EvictLag is cut loose instead of stalling the broker.
func TestEvictionOfLaggingSubscriber(t *testing.T) {
	cfg := testConfig()
	cfg.EvictLag = 1
	rets := testReturns(8, 40)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	feedAll(t, b, rets)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := b.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	evBefore := metrics.Counter("broker.evictions").Value()
	sub, err := NewSubscriber(SubscriberConfig{
		Group: "slow", Member: "laggard", FromStart: true, MaxAttempts: 2,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Run(ctx); err == nil {
		t.Fatal("lagging FromStart subscriber was not evicted")
	}
	if got := metrics.Counter("broker.evictions").Value(); got <= evBefore {
		t.Fatal("eviction counter did not move")
	}
}

// TestSubscriberRedialsSilentBroker: a broker that answers the
// handshake and then falls silent — no frames, not even heartbeats — is
// presumed dead once the idle deadline passes, and the subscriber
// redials instead of waiting on the dead link forever.
func TestSubscriberRedialsSilentBroker(t *testing.T) {
	defer func(d time.Duration) { subscriberIdle = d }(subscriberIdle)
	subscriberIdle = 100 * time.Millisecond

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := feed.NewDecoder(conn).Read(); err != nil { // GroupSub
					return
				}
				if feed.NewEncoder(conn, nil).WriteAssign(&feed.Assign{Epoch: 1, Stocks: 8, NumPartitions: 1, Partitions: []uint16{0}}) != nil {
					return
				}
				io.Copy(io.Discard, conn) // silent until the subscriber hangs up
			}()
		}
	}()

	sub, err := NewSubscriber(SubscriberConfig{Group: "g", Member: "m", Backoff: time.Millisecond,
		Dial: feed.Dialer(l.Addr().String())})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sub.Run(ctx) }()
	waitFor(t, func() bool { return sub.Stats().Connects >= 2 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestSubscriberMaxAttemptsCountsConsecutiveFailures: MaxAttempts
// bounds failed sessions in a row that delivered nothing new, not
// failures over the subscriber's life. Every session here is cut after
// it has delivered signals, so a cap of 2 never trips, and the stream
// still reaches End equal to the logs.
func TestSubscriberMaxAttemptsCountsConsecutiveFailures(t *testing.T) {
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	feedAll(t, b, testReturns(8, 40))
	want := drainLogs(t, b)
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const perSession = 50 // signals a session delivers before its cut
	var (
		mu   sync.Mutex
		cur  net.Conn
		seen int
	)
	tcp := feed.Dialer(addr.String())
	sub, err := NewSubscriber(SubscriberConfig{
		Group: "g", Member: "m", FromStart: true, MaxAttempts: 2, Backoff: time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			conn, err := tcp(ctx)
			mu.Lock()
			cur, seen = conn, 0
			mu.Unlock()
			return conn, err
		},
		OnSignal: func(int, feed.Signal) {
			mu.Lock()
			defer mu.Unlock()
			if seen++; seen == perSession {
				cur.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sub.Run(ctx); err != nil {
		t.Fatalf("subscriber gave up: %v", err)
	}
	for p := range want {
		sameSignals(t, "cut sessions", sub.Signals(p), want[p])
	}
	// More cut sessions than the cap: only a per-failure reset gets here.
	if st := sub.Stats(); st.Reconnects < 3 || st.Jumps != 0 {
		t.Fatalf("stats %+v: want ≥ 3 reconnects and no jumps", st)
	}
}
