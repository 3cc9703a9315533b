package feed

import (
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"marketminer/internal/metrics"
	"marketminer/internal/taq"
)

// ServerConfig tunes a feed server. The zero value of every field is
// replaced by the documented default.
type ServerConfig struct {
	// Universe defines the symbol table sent in Hello and used to
	// encode batches. Required.
	Universe *taq.Universe
	// BatchSize is the number of quotes per sealed batch (default 256).
	BatchSize int
	// QueueLen is the per-client send window in batches: a subscriber
	// more than QueueLen sealed batches behind the head is evicted
	// (default 1024). Because the server retains the full day log,
	// an evicted client reconnects and resumes without loss.
	QueueLen int
	// Heartbeat is the idle interval between liveness frames
	// (default 1s).
	Heartbeat time.Duration
	// WriteTimeout bounds any single frame write (default 5s); a stuck
	// peer is disconnected rather than blocking its writer goroutine
	// forever.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives one line per client life-cycle
	// event (subscribe, evict, disconnect).
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ServerStats is a snapshot of server counters.
type ServerStats struct {
	Clients  int    // currently subscribed
	Served   int    // subscriptions accepted over the lifetime
	Evicted  int    // slow consumers disconnected
	Batches  int    // sealed batches in the log
	Quotes   int    // quotes published (sealed + pending)
	LastSeq  uint64 // sequence number of the newest sealed batch
	Finished bool   // Finish has been called
}

// Server replays a quote stream to many subscribers over the binary
// wire protocol. Quotes enter via Publish (historical file replay and
// live simulator output look identical), are sealed into sequence-
// numbered batches, and are retained for the lifetime of the server so
// that any client can subscribe late (snapshot-on-subscribe) or
// reconnect and resume from its last good sequence number.
//
// Each subscriber is served by its own goroutine reading the shared
// log; a subscriber that falls more than QueueLen batches behind the
// head is evicted (slow-consumer protection). Publish never blocks on
// client I/O.
type Server struct {
	cfg ServerConfig

	mu         sync.Mutex
	log        []*Batch    // sealed batches; log[i].Seq == i+1
	pending    []taq.Quote // quotes not yet sealed
	pendingDay int
	finished   bool
	closed     bool
	clients    map[*client]struct{}
	listeners  map[net.Listener]struct{}
	served     int
	evicted    int
	quotes     int

	wg sync.WaitGroup
}

// client is one subscriber connection, owned by its handler goroutine;
// pos is read by Publish (under s.mu) for lag-based eviction.
type client struct {
	conn   net.Conn
	notify chan struct{} // capacity 1: "the log grew or state changed"
	pos    int           // index of the next log batch to send
}

func (c *client) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// NewServer validates cfg and returns a Server ready to Serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Universe == nil || cfg.Universe.Len() == 0 {
		return nil, errors.New("feed: server requires a universe")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:       cfg,
		pending:   make([]taq.Quote, 0, cfg.BatchSize),
		clients:   make(map[*client]struct{}),
		listeners: make(map[net.Listener]struct{}),
	}, nil
}

// Publish appends one quote to the stream. Quotes are sealed into a
// batch when BatchSize accumulate or the trading day changes; call
// Flush to seal a partial batch immediately. Publishing after Finish
// or Close is a no-op.
func (s *Server) Publish(q taq.Quote) {
	s.PublishBatch([]taq.Quote{q})
}

// PublishBatch publishes a slice of quotes as Publish would one by
// one, under a single acquisition of the server lock. No subscriber
// can take a batch while the call holds the lock, so what it seals
// beyond the first batch is backlog nobody had a chance to drain:
// slow-consumer lag is judged against the log as it stood at entry
// plus that first batch, which is exactly Publish's rule.
func (s *Server) PublishBatch(quotes []taq.Quote) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := len(s.log)
	for _, q := range quotes {
		s.publishLocked(q)
	}
	if len(s.log) > entry {
		s.notifyLocked(entry + 1)
	}
}

func (s *Server) publishLocked(q taq.Quote) {
	if s.finished || s.closed {
		return
	}
	if len(s.pending) > 0 && q.Day != s.pendingDay {
		s.sealLocked()
	}
	if len(s.pending) == 0 {
		s.pendingDay = q.Day
	}
	s.pending = append(s.pending, q)
	s.quotes++
	if len(s.pending) >= s.cfg.BatchSize {
		s.sealLocked()
	}
}

// Flush seals any pending partial batch so it becomes visible to
// subscribers immediately.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
	s.notifyLocked(len(s.log))
}

// sealLocked moves pending quotes into the log. Caller holds s.mu and
// tells the subscribers.
func (s *Server) sealLocked() {
	if len(s.pending) == 0 {
		return
	}
	// pending always has BatchSize capacity, so filling it never
	// regrows: a full batch hands its array to the log and a fresh
	// one is armed; a partial batch (Flush, day change) is sealed as
	// an exact copy, so the retained log holds no slack.
	quotes := s.pending
	if len(quotes) < cap(quotes) {
		quotes = slices.Clone(quotes)
		s.pending = s.pending[:0]
	} else {
		s.pending = make([]taq.Quote, 0, s.cfg.BatchSize)
	}
	s.log = append(s.log, &Batch{Seq: uint64(len(s.log) + 1), Day: s.pendingDay, Quotes: quotes})
}

// notifyLocked wakes subscribers, evicting any that are more than
// QueueLen batches behind head. Caller holds s.mu.
func (s *Server) notifyLocked(head int) {
	for c := range s.clients {
		if depth := head - c.pos; depth > s.cfg.QueueLen {
			// Slow consumer: drop the connection. The client's resume
			// protocol recovers everything from the retained log.
			s.evicted++
			metrics.Counter("feed.evictions").Inc()
			delete(s.clients, c)
			c.conn.Close()
			s.cfg.Logf("feed: evicted slow consumer %s (queue depth %d exceeds limit %d)",
				c.conn.RemoteAddr(), depth, s.cfg.QueueLen)
			continue
		}
		c.wake()
	}
}

// Finish seals the stream: any pending batch is flushed, an End frame
// is delivered to every subscriber after the final batch, and future
// Publish calls are ignored. The server keeps serving the retained log
// to late subscribers until Close.
func (s *Server) Finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	// Nothing is evicted here: from now on every subscriber, like one
	// that connects later, is replaying a finished log.
	s.sealLocked()
	s.finished = true
	for c := range s.clients {
		c.wake()
	}
}

// Serve accepts subscribers on l until the listener fails or Close is
// called. It blocks; run it in its own goroutine to serve multiple
// listeners.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("feed: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("feed: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// A panicking handler must not take down the whole feed
			// server: isolate it to this client, count it, and move on.
			defer func() {
				if r := recover(); r != nil {
					metrics.Counter("feed.client_panics").Inc()
					s.cfg.Logf("feed: %s: handler panicked: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
					conn.Close()
				}
			}()
			s.handle(conn)
		}()
	}
}

// Close shuts the server down: listeners close, every subscriber
// connection is dropped, and handler goroutines are joined.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.clients {
		c.conn.Close()
		c.wake()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		Clients:  len(s.clients),
		Served:   s.served,
		Evicted:  s.evicted,
		Batches:  len(s.log),
		Quotes:   s.quotes,
		LastSeq:  uint64(len(s.log)),
		Finished: s.finished,
	}
}

// handle serves one subscriber: Subscribe → Hello → replay-from-resume
// → live tail (heartbeats when idle) → End.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()

	// The client speaks first: one Subscribe frame.
	conn.SetReadDeadline(time.Now().Add(s.cfg.WriteTimeout))
	dec := NewDecoder(conn)
	f, err := dec.Read()
	if err != nil {
		s.cfg.Logf("feed: %s: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	sub, ok := f.(*Subscribe)
	if !ok {
		s.cfg.Logf("feed: %s: expected subscribe, got %s", conn.RemoteAddr(), f.frameType())
		return
	}
	conn.SetReadDeadline(time.Time{})

	c := &client{conn: conn, notify: make(chan struct{}, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Resume after sub.From: log[i].Seq == i+1, so the next index to
	// send is exactly From (clamped into range).
	c.pos = int(min(sub.From, uint64(len(s.log))))
	s.clients[c] = struct{}{}
	s.served++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.clients, c)
		s.mu.Unlock()
	}()
	s.cfg.Logf("feed: %s: subscribed from seq %d", conn.RemoteAddr(), sub.From)

	enc := NewEncoder(conn, s.cfg.Universe)
	write := func(fn func() error) bool {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		return fn() == nil
	}
	if !write(func() error {
		return enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: s.cfg.Universe.Symbols()})
	}) {
		return
	}

	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		s.mu.Lock()
		var next *Batch
		if c.pos < len(s.log) {
			next = s.log[c.pos]
			c.pos++
		}
		finished, last := s.finished, uint64(len(s.log))
		s.mu.Unlock()

		if next != nil {
			if !write(func() error { return enc.WriteBatch(next) }) {
				return
			}
			continue
		}
		if finished {
			write(func() error { return enc.WriteEnd(&End{Seq: last}) })
			return
		}
		select {
		case <-c.notify:
		case <-hb.C:
			if !write(func() error { return enc.WriteHeartbeat(&Heartbeat{Seq: last}) }) {
				return
			}
		}
	}
}
