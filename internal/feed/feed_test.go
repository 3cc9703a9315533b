package feed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marketminer/internal/metrics"
	"marketminer/internal/taq"
)

// startServer launches a Server on a loopback listener and returns it
// with the listener address. The listener goroutine is cleaned up by
// Server.Close via t.Cleanup.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

// runCollector starts c.Run in the background and returns a function
// that drains the quote channel to completion and reports Run's error.
func runCollector(ctx context.Context, c *Collector) (drain func() ([]taq.Quote, error)) {
	errCh := make(chan error, 1)
	go func() { errCh <- c.Run(ctx) }()
	return func() ([]taq.Quote, error) {
		var got []taq.Quote
		for q := range c.Quotes() {
			got = append(got, q)
		}
		return got, <-errCh
	}
}

func assertSameQuotes(t *testing.T, got, want []taq.Quote) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("received %d quotes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("quote %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestServerServesTwoCollectorsSnapshotAndLiveTail covers the basic
// contract: an early subscriber sees history + live tail across an
// idle (heartbeat-bridged) pause, a late subscriber gets the snapshot,
// and both receive the identical, complete, ordered stream.
func TestServerServesTwoCollectorsSnapshotAndLiveTail(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 500, 0)
	s, addr := startServer(t, ServerConfig{Universe: u, BatchSize: 16, Heartbeat: 20 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// First half published before anyone subscribes.
	s.PublishBatch(quotes[:250])
	s.Flush()

	early := NewCollector(CollectorConfig{Addr: addr, HeartbeatTimeout: 2 * time.Second})
	drainEarly := runCollector(ctx, early)
	if _, err := early.Universe(ctx); err != nil {
		t.Fatal(err)
	}

	// Idle pause: the early subscriber must be kept alive by
	// heartbeats, not disconnected.
	time.Sleep(120 * time.Millisecond)

	// Tail goes out live; a second collector subscribes mid-tail and
	// must see the full snapshot.
	s.PublishBatch(quotes[250:400])
	s.Flush()
	late := NewCollector(CollectorConfig{Addr: addr, HeartbeatTimeout: 2 * time.Second})
	drainLate := runCollector(ctx, late)
	s.PublishBatch(quotes[400:])
	s.Finish()

	gotEarly, err := drainEarly()
	if err != nil {
		t.Fatalf("early collector: %v", err)
	}
	gotLate, err := drainLate()
	if err != nil {
		t.Fatalf("late collector: %v", err)
	}
	assertSameQuotes(t, gotEarly, quotes)
	assertSameQuotes(t, gotLate, quotes)

	st := early.Stats()
	if st.Disconnects != 0 || st.Gaps != 0 || st.Duplicates != 0 {
		t.Errorf("early collector not clean: %+v", st)
	}
	if st.OrderViolations != 0 {
		t.Errorf("order violations on an ordered stream: %d", st.OrderViolations)
	}
	if got := s.Stats(); got.Served != 2 || got.Quotes != len(quotes) {
		t.Errorf("server stats: %+v", got)
	}
}

// TestServerSnapshotAfterFinish: a collector that subscribes after the
// stream ended still receives the entire retained log plus End.
func TestServerSnapshotAfterFinish(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 300, 2)
	s, addr := startServer(t, ServerConfig{Universe: u, BatchSize: 64})
	s.PublishBatch(quotes)
	s.Finish()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := NewCollector(CollectorConfig{Addr: addr})
	got, err := runCollector(ctx, c)()
	if err != nil {
		t.Fatal(err)
	}
	assertSameQuotes(t, got, quotes)
	if u2, _ := c.Universe(ctx); u2.Len() != u.Len() {
		t.Errorf("universe %d symbols, want %d", u2.Len(), u.Len())
	}
}

// TestServerEvictsSlowConsumer: a subscriber that stops reading is
// evicted once it falls more than QueueLen batches behind, and the
// publisher is never blocked by it.
func TestServerEvictsSlowConsumer(t *testing.T) {
	u := testUniverse(t)
	s, addr := startServer(t, ServerConfig{
		Universe: u, BatchSize: 1, QueueLen: 4, WriteTimeout: 200 * time.Millisecond,
	})

	// A raw client that subscribes and then never reads.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := NewEncoder(conn, nil).WriteSubscribe(&Subscribe{From: 0}); err != nil {
		t.Fatal(err)
	}

	q := testQuotes(u, 1, 0)[0]
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after %d batches", s.Stats().Batches)
		}
		for i := 0; i < 500; i++ {
			s.Publish(q)
		}
	}
	if st := s.Stats(); st.Evicted < 1 {
		t.Errorf("evicted = %d, want ≥ 1", st.Evicted)
	}
}

// TestServerEvictionIncrementsCounterAndLogs pins the observability
// contract of slow-consumer eviction: the process-wide metrics counter
// moves and the log line names the client address and its queue depth.
func TestServerEvictionIncrementsCounterAndLogs(t *testing.T) {
	u := testUniverse(t)
	var logMu sync.Mutex
	var lines []string
	s, addr := startServer(t, ServerConfig{
		Universe: u, BatchSize: 1, QueueLen: 4, WriteTimeout: 200 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	before := metrics.Counter("feed.evictions").Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := NewEncoder(conn, nil).WriteSubscribe(&Subscribe{From: 0}); err != nil {
		t.Fatal(err)
	}

	q := testQuotes(u, 1, 0)[0]
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after %d batches", s.Stats().Batches)
		}
		for i := 0; i < 500; i++ {
			s.Publish(q)
		}
	}
	if delta := metrics.Counter("feed.evictions").Value() - before; delta < 1 {
		t.Errorf("feed.evictions delta = %d, want ≥ 1", delta)
	}
	localAddr := conn.LocalAddr().String()
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range lines {
		if strings.Contains(line, "evicted slow consumer") {
			if !strings.Contains(line, localAddr) {
				t.Errorf("eviction log lacks client address %s: %q", localAddr, line)
			}
			if !strings.Contains(line, "queue depth") {
				t.Errorf("eviction log lacks queue depth: %q", line)
			}
			return
		}
	}
	t.Fatalf("no eviction log line in %q", lines)
}

// killableDialer dials the address in addr (swappable for listener
// restarts) and remembers the live connection so tests can sever it.
type killableDialer struct {
	addr atomic.Value // string
	mu   sync.Mutex
	cur  net.Conn
}

func newKillableDialer(addr string) *killableDialer {
	d := &killableDialer{}
	d.addr.Store(addr)
	return d
}

func (d *killableDialer) dial(ctx context.Context) (net.Conn, error) {
	var nd net.Dialer
	conn, err := nd.DialContext(ctx, "tcp", d.addr.Load().(string))
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.cur = conn
	d.mu.Unlock()
	return conn, nil
}

func (d *killableDialer) kill() {
	d.mu.Lock()
	if d.cur != nil {
		d.cur.Close()
	}
	d.mu.Unlock()
}

// TestCollectorResumesAfterServerRestart is the killed-and-restarted
// scenario of the acceptance criteria: mid-stream, the connection is
// severed AND the listener goes away; the collector backs off, redials
// the restarted listener, resumes from its last sequence number, and
// the delivered stream has no gap and no duplicate.
func TestCollectorResumesAfterServerRestart(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 600, 0)
	s, err := NewServer(ServerConfig{Universe: u, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l1)

	dialer := newKillableDialer(l1.Addr().String())
	c := NewCollector(CollectorConfig{
		Dial:             dialer.dial,
		Backoff:          5 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	drain := runCollector(ctx, c)

	// First half flows, then the world ends: connection severed and
	// listener closed, so redials fail for a while.
	s.PublishBatch(quotes[:300])
	s.Flush()
	for c.Stats().Quotes < 300 {
		time.Sleep(time.Millisecond)
	}
	l1.Close()
	dialer.kill()

	// Let several dial attempts fail against the dead listener.
	for c.Stats().DialFailures < 2 {
		time.Sleep(time.Millisecond)
	}

	// Restart on a fresh port; the collector must resume seamlessly.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialer.addr.Store(l2.Addr().String())
	go s.Serve(l2)
	s.PublishBatch(quotes[300:])
	s.Finish()

	got, err := drain()
	if err != nil {
		t.Fatalf("collector run: %v", err)
	}
	assertSameQuotes(t, got, quotes)
	st := c.Stats()
	if st.Connects < 2 {
		t.Errorf("connects = %d, want ≥ 2 (reconnect)", st.Connects)
	}
	if st.Gaps != 0 {
		t.Errorf("gaps = %d, want 0 (resume must be seamless)", st.Gaps)
	}
	if st.DialFailures < 2 {
		t.Errorf("dial failures = %d, want ≥ 2", st.DialFailures)
	}
}

// chokeConn kills the connection after a byte budget is read — the
// flaky-transport harness for resilience tests.
type chokeConn struct {
	net.Conn
	mu     sync.Mutex
	budget int // < 0 means unlimited
}

var errChoked = errors.New("flaky: connection killed")

func (c *chokeConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	budget := c.budget
	c.mu.Unlock()
	if budget == 0 {
		c.Conn.Close()
		return 0, errChoked
	}
	if budget > 0 && len(p) > budget {
		p = p[:budget]
	}
	n, err := c.Conn.Read(p)
	if budget > 0 {
		c.mu.Lock()
		c.budget -= n
		c.mu.Unlock()
	}
	return n, err
}

// flakyDialer fails the first `refusals` dials outright, then hands
// out connections with per-session read budgets (the last budget
// repeats; < 0 is unlimited).
type flakyDialer struct {
	addr     string
	mu       sync.Mutex
	refusals int
	budgets  []int
	session  int
}

func (d *flakyDialer) dial(ctx context.Context) (net.Conn, error) {
	d.mu.Lock()
	if d.refusals > 0 {
		d.refusals--
		d.mu.Unlock()
		return nil, errors.New("flaky: dial refused")
	}
	i := d.session
	if i >= len(d.budgets) {
		i = len(d.budgets) - 1
	}
	budget := d.budgets[i]
	d.session++
	d.mu.Unlock()

	var nd net.Dialer
	conn, err := nd.DialContext(ctx, "tcp", d.addr)
	if err != nil {
		return nil, err
	}
	return &chokeConn{Conn: conn, budget: budget}, nil
}

// TestCollectorFlakyTransportZeroLoss drops the connection mid-stream
// repeatedly (byte-budgeted sessions) after refusing the first dials,
// and asserts: multiple reconnects, and zero quote loss / zero
// duplicates in the delivered stream, enforced by sequence-numbered
// resume. (The backoff schedule itself is pinned in supervise.)
func TestCollectorFlakyTransportZeroLoss(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 2000, 1)
	s, addr := startServer(t, ServerConfig{Universe: u, BatchSize: 32})
	s.PublishBatch(quotes)
	s.Finish()

	d := &flakyDialer{addr: addr, refusals: 3, budgets: []int{900, 2500, 6000, -1}}
	c := NewCollector(CollectorConfig{
		Dial:             d.dial,
		Backoff:          4 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := runCollector(ctx, c)()
	if err != nil {
		t.Fatalf("collector run: %v", err)
	}

	// Zero loss, zero duplication, original order.
	assertSameQuotes(t, got, quotes)

	st := c.Stats()
	if st.Connects < 3 {
		t.Errorf("connects = %d, want ≥ 3 (choked sessions must reconnect)", st.Connects)
	}
	if st.DialFailures != 3 {
		t.Errorf("dial failures = %d, want 3", st.DialFailures)
	}
	if st.Disconnects < 2 {
		t.Errorf("disconnects = %d, want ≥ 2", st.Disconnects)
	}
}

// TestCollectorHeartbeatTimeout: a server that goes silent (no data,
// no heartbeats) is abandoned after HeartbeatTimeout and the collector
// recovers by reconnecting — here to a healthy server.
func TestCollectorHeartbeatTimeout(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 100, 0)

	// The silent impostor: accepts, answers the handshake, then hangs.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		conn, err := silent.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := NewDecoder(conn).Read(); err != nil { // subscribe
			return
		}
		NewEncoder(conn, u).WriteHello(&Hello{Version: ProtocolVersion, Symbols: u.Symbols()})
		time.Sleep(10 * time.Second) // silence: no batches, no heartbeats
	}()

	s, addr := startServer(t, ServerConfig{Universe: u, BatchSize: 16})
	s.PublishBatch(quotes)
	s.Finish()

	var attempts atomic.Int32
	dial := func(ctx context.Context) (net.Conn, error) {
		var nd net.Dialer
		if attempts.Add(1) == 1 {
			return nd.DialContext(ctx, "tcp", silent.Addr().String())
		}
		return nd.DialContext(ctx, "tcp", addr)
	}
	c := NewCollector(CollectorConfig{
		Dial:             dial,
		Backoff:          2 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := runCollector(ctx, c)()
	if err != nil {
		t.Fatal(err)
	}
	assertSameQuotes(t, got, quotes)
	if st := c.Stats(); st.Disconnects < 1 {
		t.Errorf("disconnects = %d, want ≥ 1 (silent server must time out)", st.Disconnects)
	}
}

// TestCollectorGivesUpAfterMaxAttempts bounds the retry loop.
func TestCollectorGivesUpAfterMaxAttempts(t *testing.T) {
	c := NewCollector(CollectorConfig{
		Dial:        func(ctx context.Context) (net.Conn, error) { return nil, errors.New("down") },
		Backoff:     time.Millisecond,
		MaxAttempts: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := runCollector(ctx, c)()
	if err == nil {
		t.Fatal("want error after MaxAttempts")
	}
	if len(got) != 0 {
		t.Errorf("received %d quotes from a dead feed", len(got))
	}
	if st := c.Stats(); st.DialFailures != 3 {
		t.Errorf("dial failures = %d, want 3", st.DialFailures)
	}
}

// TestCollectorDialerMovesToNextAddress: Dialer tries its addresses in
// turn, so a collector whose first candidate is dead redials the next
// one and still receives the whole stream.
func TestCollectorDialerMovesToNextAddress(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 100, 0)
	s, addr := startServer(t, ServerConfig{Universe: u, BatchSize: 16})
	s.PublishBatch(quotes)
	s.Finish()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	c := NewCollector(CollectorConfig{Dial: Dialer(dead.Addr().String(), addr), Backoff: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := runCollector(ctx, c)()
	if err != nil {
		t.Fatal(err)
	}
	assertSameQuotes(t, got, quotes)
	if st := c.Stats(); st.DialFailures != 1 || st.Connects != 1 {
		t.Errorf("dial failures %d, connects %d: want the dead address once, then the live one", st.DialFailures, st.Connects)
	}
}

// TestCollectorStopsOnContextCancel: cancellation closes the quote
// channel and Run returns ctx.Err().
func TestCollectorStopsOnContextCancel(t *testing.T) {
	u := testUniverse(t)
	s, addr := startServer(t, ServerConfig{Universe: u})
	s.PublishBatch(testQuotes(u, 10, 0))
	s.Flush() // stream never finishes

	ctx, cancel := context.WithCancel(context.Background())
	c := NewCollector(CollectorConfig{Addr: addr, HeartbeatTimeout: 5 * time.Second})
	drain := runCollector(ctx, c)
	for c.Stats().Quotes < 10 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if _, err := drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCollectorStopsOnCancelWhileConsumerStalled: with nobody reading
// Quotes() the collector blocks handing off a batch, and cancellation
// must still end Run promptly from inside that blocked send.
func TestCollectorStopsOnCancelWhileConsumerStalled(t *testing.T) {
	u := testUniverse(t)
	s, addr := startServer(t, ServerConfig{Universe: u})
	s.PublishBatch(testQuotes(u, 10, 0))
	s.Flush() // stream never finishes

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewCollector(CollectorConfig{Addr: addr, Buffer: 1, HeartbeatTimeout: 5 * time.Second})
	errCh := make(chan error, 1)
	go func() { errCh <- c.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Quotes < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("collector counted %d of 10 quotes", c.Stats().Quotes)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked 1 s after cancel with a stalled consumer")
	}
}

func TestServerRequiresUniverse(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("NewServer without universe should error")
	}
}

// TestCollectorRejectsUniverseChange: a reconnect that lands on a
// server advertising different symbols must fail loudly rather than
// mis-map sequence-numbered batches.
func TestCollectorRejectsUniverseChange(t *testing.T) {
	u := testUniverse(t)
	u2, err := taq.NewUniverse([]string{"AAA", "BBB", "CCC", "DDD"})
	if err != nil {
		t.Fatal(err)
	}
	s1, addr1 := startServer(t, ServerConfig{Universe: u, BatchSize: 4})
	s2, addr2 := startServer(t, ServerConfig{Universe: u2, BatchSize: 4})
	s1.PublishBatch(testQuotes(u, 8, 0))
	s1.Flush()
	s2.Finish()

	var attempts atomic.Int32
	dial := func(ctx context.Context) (net.Conn, error) {
		var nd net.Dialer
		if attempts.Add(1) == 1 {
			return nd.DialContext(ctx, "tcp", addr1)
		}
		return nd.DialContext(ctx, "tcp", addr2)
	}
	c := NewCollector(CollectorConfig{
		Dial:             dial,
		Backoff:          2 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = runCollector(ctx, c)()
	if !errors.Is(err, ErrUniverseChanged) {
		t.Fatalf("err = %v, want ErrUniverseChanged", err)
	}
}

// PublishBatch seals exactly the batches that publishing quote by quote
// does — full ones, the one cut short by a day change, the one Flush
// cuts — and sealing neither regrows the pending buffer nor leaves
// slack in the retained log.
func TestPublishBatchSealsAsPublishDoes(t *testing.T) {
	u := testUniverse(t)
	quotes := append(testQuotes(u, 150, 0), testQuotes(u, 100, 1)...)
	cfg := ServerConfig{Universe: u, BatchSize: 64}
	one, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range quotes {
		one.Publish(q)
		if i == 200 {
			one.Flush()
		}
	}
	all.PublishBatch(quotes[:201])
	all.Flush()
	all.PublishBatch(quotes[201:])
	one.Finish()
	all.Finish()

	if len(all.log) != len(one.log) {
		t.Fatalf("PublishBatch sealed %d batches, Publish %d", len(all.log), len(one.log))
	}
	sizes := make([]int, len(all.log))
	for i, b := range all.log {
		if !reflect.DeepEqual(b, one.log[i]) {
			t.Errorf("batch %d: seq %d day %d with %d quotes, want seq %d day %d with %d", i,
				b.Seq, b.Day, len(b.Quotes), one.log[i].Seq, one.log[i].Day, len(one.log[i].Quotes))
		}
		sizes[i] = len(b.Quotes)
		if len(b.Quotes) < cfg.BatchSize && cap(b.Quotes) >= cfg.BatchSize {
			t.Errorf("batch %d retains capacity %d for %d quotes", i, cap(b.Quotes), len(b.Quotes))
		}
	}
	if want := []int{64, 64, 22, 51, 49}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
	if cap(all.pending) != cfg.BatchSize {
		t.Errorf("pending capacity %d after sealing, want BatchSize %d", cap(all.pending), cfg.BatchSize)
	}
	if st := all.Stats(); st.Quotes != len(quotes) || st.LastSeq != 5 {
		t.Errorf("stats %+v, want %d quotes through seq 5", st, len(quotes))
	}
}

// pipeClient subscribes through an in-memory pipe, whose writes block
// until the client reads: a client that does not read pins its handler
// at pos 0, which a socket's kernel buffers would not.
func pipeClient(t *testing.T, s *Server) net.Conn {
	t.Helper()
	before := s.Stats().Served
	srvEnd, cliEnd := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); s.handle(srvEnd) }()
	t.Cleanup(func() { cliEnd.Close(); <-done })
	if err := NewEncoder(cliEnd, nil).WriteSubscribe(&Subscribe{From: 0}); err != nil {
		t.Fatal(err)
	}
	for s.Stats().Served == before {
		time.Sleep(time.Millisecond)
	}
	return cliEnd
}

// readThrough reads frames until the batch with sequence number seq
// (or, for seq 0, the End frame) and returns how many batches it saw.
func readThrough(t *testing.T, dec *Decoder, seq uint64) int {
	t.Helper()
	batches := 0
	for {
		f, err := dec.Read()
		if err != nil {
			t.Fatalf("after %d batches: %v", batches, err)
		}
		switch fr := f.(type) {
		case *Batch:
			if batches++; fr.Seq == seq {
				return batches
			}
		case *End:
			if seq == 0 {
				return batches
			}
			t.Fatalf("End before batch %d", seq)
		}
	}
}

// TestPublishBatchJudgesLagAtEntry: handing over a whole day in one
// PublishBatch seals far more than QueueLen batches while no subscriber
// can take one, so it must evict nobody; a client that was already
// more than QueueLen behind when a call began still is evicted, and a
// healthy client next to it is not.
func TestPublishBatchJudgesLagAtEntry(t *testing.T) {
	u := testUniverse(t)
	s, addr := startServer(t, ServerConfig{Universe: u, BatchSize: 1, QueueLen: 4})
	healthy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if err := NewEncoder(healthy, nil).WriteSubscribe(&Subscribe{From: 0}); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(healthy)
	if _, err := dec.Read(); err != nil { // Hello: the handler is registered
		t.Fatal(err)
	}
	pipeClient(t, s) // subscribed, never reads

	day := testQuotes(u, 100, 0)
	s.PublishBatch(day)
	if st := s.Stats(); st.Evicted != 0 || st.Clients != 2 || st.Batches != len(day) {
		t.Fatalf("after a whole-day PublishBatch: %+v, want %d batches and both clients", st, len(day))
	}
	readThrough(t, dec, uint64(len(day))) // the healthy handler is at the head now
	s.PublishBatch(testQuotes(u, 1, 0))
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stalled client %d batches behind at entry: %+v, want exactly it evicted", len(day), st)
	}
	readThrough(t, dec, uint64(len(day)+1))
	s.Finish()
	if got := readThrough(t, dec, 0); got != 0 {
		t.Fatalf("%d batches after the last", got)
	}
}

// TestFinishAfterWholeDayEvictsNobody is mmfeed's sequence: the day in
// one PublishBatch, Finish straight after. The subscriber that has not
// been scheduled yet is a replay reader of a finished log — as one
// connecting a moment later would be — and receives all of it.
func TestFinishAfterWholeDayEvictsNobody(t *testing.T) {
	u := testUniverse(t)
	s, _ := startServer(t, ServerConfig{Universe: u, BatchSize: 1, QueueLen: 4})
	conn := pipeClient(t, s)
	day := testQuotes(u, 100, 0)
	s.PublishBatch(day)
	s.Finish()
	if st := s.Stats(); st.Evicted != 0 || st.Clients != 1 {
		t.Fatalf("after PublishBatch + Finish: %+v, want the client kept", st)
	}
	if got := readThrough(t, NewDecoder(conn), 0); got != len(day) {
		t.Fatalf("client received %d batches before End, want %d", got, len(day))
	}
}
