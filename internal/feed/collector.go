package feed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"marketminer/internal/metrics"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
)

// DialFunc establishes one connection to a server. Tests inject flaky
// implementations; chaos.Chaos.Dialer wraps one to fault-inject the
// wire.
type DialFunc func(ctx context.Context) (net.Conn, error)

// Dialer returns a TCP DialFunc that moves to the next of addrs on
// each call, so a client redialing after a failure tries the next
// candidate (a primary, then its standbys). With no address every call
// fails.
func Dialer(addrs ...string) DialFunc {
	var d net.Dialer
	var calls atomic.Uint64
	return func(ctx context.Context) (net.Conn, error) {
		if len(addrs) == 0 {
			return nil, errors.New("feed: Dialer has no address to dial")
		}
		addr := addrs[(calls.Add(1)-1)%uint64(len(addrs))]
		return d.DialContext(ctx, "tcp", addr)
	}
}

// CollectorConfig tunes a Collector. Zero fields take the documented
// defaults.
type CollectorConfig struct {
	// Addr is the feed server address (used by the default dialer).
	Addr string
	// Dial overrides the transport; when nil, Dialer(Addr) is used.
	Dial DialFunc
	// Buffer is the depth of the outgoing quote channel (default 1024).
	Buffer int
	// Backoff is the reconnect delay after the first failure (default
	// 50ms); consecutive failures double it up to 32×Backoff, each
	// delay jittered in [d/2, d] (supervise.Redial).
	Backoff time.Duration
	// HeartbeatTimeout is the read deadline per frame: a connection
	// silent for longer (no batches, no heartbeats) is presumed dead
	// and redialed (default 15s). Must exceed the server's Heartbeat
	// interval.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds consecutive attempts that fail without
	// delivering a new batch before Run gives up (0 = retry forever,
	// until ctx cancels).
	MaxAttempts int
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Dial == nil {
		c.Dial = Dialer(c.Addr)
	}
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 15 * time.Second
	}
	return c
}

// CollectorStats is a snapshot of collector counters. Gaps and
// Reconnects are mirrored into the process-wide metrics registry as
// "feed.collector.gap_resumes" and "feed.collector.reconnects", so
// operators see resume churn without scraping logs.
type CollectorStats struct {
	Connects        int // sessions that completed a handshake
	Reconnects      int // handshakes after the first (resumed sessions)
	DialFailures    int // failed connection attempts
	Disconnects     int // sessions that ended before the End frame
	Batches         int // batches delivered downstream
	Quotes          int // quotes delivered downstream
	Duplicates      int // quotes skipped because their batch was already seen
	Gaps            int // sequence holes observed (forces a resume)
	OrderViolations int // quotes breaking (Day, SeqTime) monotonicity
	LastSeq         uint64
}

// ErrUniverseChanged is returned when a reconnected session advertises
// a different symbol table than the first; resuming a sequence-
// numbered stream across universes would mis-map every quote.
var ErrUniverseChanged = errors.New("feed: server universe changed across reconnect")

// Collector is the resilient client side of the feed: it maintains a
// subscription to a feed server, transparently reconnecting through
// supervise.Retry's jittered backoff and resuming from the last
// delivered sequence number, and exposes the stream as a quote
// channel — the same contract the in-process pipeline source consumes.
//
// Resilience properties, each covered by tests:
//   - reconnect with exponential backoff + jitter on dial failure or
//     mid-stream disconnect;
//   - zero quote loss and zero duplicates across reconnects, enforced
//     by batch sequence numbers (resume-from-seq + skip-replayed);
//   - heartbeat timeouts: a silent connection is redialed;
//   - (Day, SeqTime) monotonicity validation via taq.OrderChecker.
type Collector struct {
	cfg    CollectorConfig
	quotes chan taq.Quote

	uniReady chan struct{}
	uni      *taq.Universe

	closeOnce sync.Once

	mu      sync.Mutex
	st      CollectorStats
	lastSeq uint64
	order   taq.OrderChecker
}

// NewCollector returns a Collector; call Run to start it.
func NewCollector(cfg CollectorConfig) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:      cfg,
		quotes:   make(chan taq.Quote, cfg.Buffer),
		uniReady: make(chan struct{}),
	}
}

// Quotes returns the delivery channel. It is closed when Run returns:
// after the server's End frame (clean end of stream), on context
// cancellation, or when MaxAttempts is exhausted.
func (c *Collector) Quotes() <-chan taq.Quote { return c.quotes }

// Universe blocks until the first Hello frame has been received and
// returns the server's symbol table as a Universe.
func (c *Collector) Universe(ctx context.Context) (*taq.Universe, error) {
	select {
	case <-c.uniReady:
		return c.uni, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats returns a snapshot of the collector counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.LastSeq = c.lastSeq
	st.OrderViolations = c.order.Violations()
	return st
}

// Run drives the collector until the stream ends cleanly (returns
// nil), the context is cancelled (returns ctx.Err()), the server's
// universe changes (ErrUniverseChanged), or MaxAttempts consecutive
// attempts fail without progress (returns the last error). The quote
// channel is closed in every case. Run must be called once.
func (c *Collector) Run(ctx context.Context) error {
	defer c.closeOnce.Do(func() { close(c.quotes) })
	err := supervise.Retry(ctx, supervise.Redial(c.cfg.Backoff, c.cfg.MaxAttempts), c.session)
	var ce *supervise.CircuitError
	if errors.As(err, &ce) {
		return fmt.Errorf("feed: giving up after %d attempts: %w", ce.Failures, ce.Last)
	}
	return err
}

// session runs one connection: dial, subscribe at the resume point,
// validate the Hello, then deliver batches until the End frame (nil)
// or a failure. Every new batch reports progress.
func (c *Collector) session(ctx context.Context, progress func()) (err error) {
	conn, err := c.cfg.Dial(ctx)
	if err != nil {
		c.mu.Lock()
		c.st.DialFailures++
		c.mu.Unlock()
		return err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	defer func() {
		if err != nil && ctx.Err() == nil {
			c.mu.Lock()
			c.st.Disconnects++
			c.mu.Unlock()
		}
	}()

	enc := NewEncoder(conn, nil)
	conn.SetWriteDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	c.mu.Lock()
	from := c.lastSeq
	c.mu.Unlock()
	if err := enc.WriteSubscribe(&Subscribe{From: from}); err != nil {
		return fmt.Errorf("feed: subscribe: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})

	dec := NewDecoder(conn)
	readFrame := func() (Frame, error) {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		return dec.Read()
	}

	f, err := readFrame()
	if err != nil {
		return fmt.Errorf("feed: hello: %w", err)
	}
	hello, ok := f.(*Hello)
	if !ok {
		return protoErrf("expected hello, got %s", f.frameType())
	}
	if hello.Version != ProtocolVersion {
		return protoErrf("server speaks version %d, want %d", hello.Version, ProtocolVersion)
	}
	if err := c.acceptUniverse(hello.Symbols); err != nil {
		return err
	}
	c.mu.Lock()
	c.st.Connects++
	if c.st.Connects > 1 {
		c.st.Reconnects++
		metrics.Counter("feed.collector.reconnects").Inc()
	}
	c.mu.Unlock()

	for {
		f, err := readFrame()
		if err != nil {
			return err
		}
		switch fr := f.(type) {
		case *Batch:
			c.mu.Lock()
			switch {
			case fr.Seq <= c.lastSeq:
				// Replayed by the resume protocol; already delivered.
				c.st.Duplicates += len(fr.Quotes)
				c.mu.Unlock()
				continue
			case fr.Seq != c.lastSeq+1:
				c.st.Gaps++
				metrics.Counter("feed.collector.gap_resumes").Inc()
				c.mu.Unlock()
				// Force a reconnect; the fresh Subscribe re-requests
				// the hole, so the gap costs latency, not data.
				return protoErrf("sequence gap: got %d after %d", fr.Seq, c.lastSeq)
			}
			for _, q := range fr.Quotes {
				c.order.Check(q)
			}
			c.lastSeq = fr.Seq
			c.st.Batches++
			c.st.Quotes += len(fr.Quotes)
			c.mu.Unlock()
			for _, q := range fr.Quotes {
				// A send with room skips the two-case select; only a
				// full channel waits on it, where cancellation can win.
				select {
				case c.quotes <- q:
					continue
				default:
				}
				select {
				case c.quotes <- q:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			progress()
		case *Heartbeat:
			// Liveness only; the read deadline was already refreshed.
		case *End:
			c.mu.Lock()
			behind := fr.Seq > c.lastSeq
			c.mu.Unlock()
			if behind {
				// End arrived but we hold an incomplete prefix (can
				// happen if the server trimmed our resume point);
				// reconnect to fetch the remainder.
				return protoErrf("end at seq %d but only %d delivered", fr.Seq, c.lastSeq)
			}
			return nil
		default:
			return protoErrf("unexpected frame %s", f.frameType())
		}
	}
}

// acceptUniverse installs the symbol table on first contact and
// verifies it is unchanged on reconnects; a change is permanent.
func (c *Collector) acceptUniverse(symbols []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.uni == nil {
		u, err := taq.NewUniverse(symbols)
		if err != nil {
			return fmt.Errorf("feed: bad server universe: %w", err)
		}
		c.uni = u
		close(c.uniReady)
		return nil
	}
	if len(symbols) != c.uni.Len() {
		return supervise.Permanent(ErrUniverseChanged)
	}
	for i, s := range symbols {
		if c.uni.Symbol(i) != s {
			return supervise.Permanent(ErrUniverseChanged)
		}
	}
	return nil
}
