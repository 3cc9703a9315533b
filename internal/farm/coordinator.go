package farm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
	"marketminer/internal/supervise"
	"marketminer/internal/sweep"
)

// ErrFenced is returned (wrapped) by Serve when a newer coordinator
// incarnation has claimed the manifest epoch: this process is stale
// and must stand down without touching the journal again.
var ErrFenced = errors.New("farm: coordinator fenced by a higher epoch")

// CoordinatorConfig configures one farm coordinator run.
type CoordinatorConfig struct {
	// Config is the sweep every worker must have been started with;
	// its fingerprint gates Join.
	Config backtest.Config
	// BlockSize is the pairs-per-block granularity; ≤ 0 means
	// sweep.DefaultBlockSize (fingerprinted, so workers must agree).
	BlockSize int
	// JournalPath is the checkpoint journal (required). A farm journal
	// is written as Shard{0, 1}, so mmreport -merge and even a local
	// single-host sweep.Run can pick up where a farm left off. The
	// coordinator manifest (JournalPath + ".coord") lives alongside it:
	// epoch, id counters, lease table and pending order, rewritten on
	// every lease change and touched on every other sweeper tick, which
	// makes it the liveness beacon a standby tails too.
	JournalPath string
	// LeaseTTL bounds how long a silent worker holds a group before it
	// is reassigned; ≤ 0 means DefaultLeaseTTL. After a coordinator
	// restart it is also the rejoin grace: a lease restored from the
	// manifest is held for its prior owner this long before expiring
	// into the pending queue.
	LeaseTTL time.Duration
	// SweepEvery is the expiry-check cadence; ≤ 0 means LeaseTTL/4.
	SweepEvery time.Duration
	// Limit, when > 0, pauses the run cleanly after accepting that many
	// results in this invocation; a later run with the same journal
	// resumes.
	Limit int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Progress, when non-nil, is called after every accepted unit with
	// (journaled, total) counts.
	Progress func(done, total int)
}

// CoordStats reports what one Serve invocation did.
type CoordStats struct {
	// UnitsTotal is the whole sweep's unit count; UnitsRestored were
	// already in the journal, UnitsExecuted were accepted from workers
	// now.
	UnitsTotal, UnitsRestored, UnitsExecuted int
	// Trades counts trades across all journaled units.
	Trades int64
	// WorkersJoined counts accepted Join handshakes (reconnects
	// included).
	WorkersJoined int
	// Epoch is the coordinator epoch this incarnation served under:
	// 1 for a fresh farm, prior+1 after every restart or takeover.
	Epoch uint64
	// Paused reports that Limit stopped the run before the sweep
	// finished.
	Paused bool
	// Recovered is non-nil when a damaged journal tail was healed
	// before serving.
	Recovered *sweep.Corruption
}

// Coordinator deals sweep groups to remote workers and journals their
// results. One Coordinator serves one sweep; create it with
// NewCoordinator and run it with Serve. It is the shell around
// coordState: apply turns connections, ticks and cancels into events.
type Coordinator struct {
	cc           CoordinatorConfig
	plan         *sweep.Plan
	header       sweep.Header
	fingerprint  string
	ttl          time.Duration
	sweepEvery   time.Duration
	drainGrace   time.Duration
	manifestPath string
	now          func() time.Time // injectable clock (expiry tests)
	done         chan struct{}    // closed once finished

	// mu guards the core, the journal and the session table.
	mu       sync.Mutex
	st       coordState
	journal  *sweep.Journal
	sessions map[uint64]*session
}

// session is one connected worker. Its encoder is shared by the
// handler, the sweeper's heartbeats and wake-ups of parked workers;
// writeMu serializes them.
type session struct {
	id      uint64
	conn    net.Conn
	writeMu sync.Mutex
	enc     *feed.Encoder
}

func (s *session) send(f feed.Frame) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	switch f := f.(type) {
	case *feed.Grant:
		return s.enc.WriteGrant(f)
	case *feed.Lease:
		return s.enc.WriteLease(f)
	case *feed.ResultAck:
		return s.enc.WriteResultAck(f)
	case *feed.Heartbeat:
		return s.enc.WriteHeartbeat(f)
	default: // *feed.End
		return s.enc.WriteEnd(&feed.End{})
	}
}

// NewCoordinator validates the configuration and derives the plan. The
// journal is opened by Serve.
func NewCoordinator(cc CoordinatorConfig) (*Coordinator, error) {
	if cc.JournalPath == "" {
		return nil, fmt.Errorf("farm: CoordinatorConfig.JournalPath is required")
	}
	runner, err := sweep.NewGroupRunner(cc.Config, cc.BlockSize)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cc:           cc,
		plan:         runner.Plan(),
		header:       sweep.PlanHeader(runner, sweep.Shard{Index: 0, Count: 1}),
		fingerprint:  runner.Fingerprint(),
		ttl:          cc.LeaseTTL,
		sweepEvery:   cc.SweepEvery,
		drainGrace:   3 * time.Second,
		manifestPath: coordManifestPath(cc.JournalPath),
		now:          time.Now,
		done:         make(chan struct{}),
		sessions:     map[uint64]*session{},
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	if c.sweepEvery <= 0 {
		c.sweepEvery = c.ttl / defaultTTLDivide
	}
	c.st = coordState{plan: c.plan, ttl: c.ttl, limit: cc.Limit, sessions: map[uint64]string{}}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cc.Logf != nil {
		c.cc.Logf(format, args...)
	}
}

// Serve opens (or resumes) the journal and manifest, claims the next
// coordinator epoch, accepts workers on l and deals groups until the
// sweep is complete, Limit is reached, ctx is cancelled, or a newer
// incarnation fences this one off. It owns l and closes it on the way
// out. Serve never computes a unit itself — a coordinator on a laptop
// can drive a room full of workers.
func (c *Coordinator) Serve(ctx context.Context, l net.Listener) (*CoordStats, error) {
	prior, err := readCoordManifest(c.manifestPath, c.fingerprint)
	var done map[int]int
	var recovered *sweep.Corruption
	if err == nil {
		c.journal, done, recovered, err = sweep.OpenJournal(c.cc.JournalPath, c.header)
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	if recovered != nil {
		c.logf("farm: healed journal tail: %v", recovered)
	}
	c.apply(event{kind: evRestore, prior: prior, done: done, now: c.now()}, nil)
	select {
	case <-c.done: // nothing left to do, or fenced before serving
		l.Close()
		return c.close(recovered)
	default:
	}

	// Sweeper: expiry, heartbeats, and the manifest probe and touch that
	// standbys watch (the probe reads outside mu: only another
	// incarnation moves the epoch). It aborts on cancel, and closes the
	// listener once the run is over so Accept returns.
	go func() {
		t := time.NewTicker(c.sweepEvery)
		defer t.Stop()
		defer l.Close()
		for cancel := ctx.Done(); ; {
			select {
			case <-cancel:
				cancel = nil
				c.apply(event{kind: evAbort, err: ctx.Err()}, nil)
			case <-c.done:
				return
			case <-t.C:
				c.apply(event{kind: evTick, seen: c.diskEpoch(), now: c.now()}, nil)
			}
		}
	}()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := l.Accept()
		if err != nil {
			acceptErr = err
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.handle(conn)
		}()
	}
	// If the listener died before anything finished the run, that is a
	// real serving error, not a shutdown.
	c.apply(event{kind: evAbort, err: acceptErr}, nil)
	wg.Wait()
	// Final manifest, so a later run resumes exactly here; a fenced
	// incarnation's write bounces off the fence.
	c.apply(event{kind: evRelease}, nil)
	return c.close(recovered)
}

// close closes the journal and reports the run.
func (c *Coordinator) close(recovered *sweep.Corruption) (*CoordStats, error) {
	c.mu.Lock()
	st := &c.st
	stats := &CoordStats{
		UnitsTotal:    c.plan.NumUnits(),
		UnitsRestored: st.restored,
		UnitsExecuted: st.accepted,
		Trades:        st.trades,
		WorkersJoined: st.joined,
		Epoch:         st.epoch,
		Paused:        st.paused,
		Recovered:     recovered,
	}
	err := st.fatal
	c.mu.Unlock()
	if cerr := c.journal.Close(); err == nil {
		err = cerr
	}
	return stats, err
}

// diskEpoch re-reads the manifest's epoch; a missing or unreadable
// manifest reads as 0, so fencing fails open.
func (c *Coordinator) diskEpoch() uint64 {
	if m, err := readCoordManifest(c.manifestPath, c.fingerprint); err == nil && m != nil {
		return m.Epoch
	}
	return 0
}

// apply steps the core and carries out its effects: under mu the
// durable ones in order, each write after its own fence check, whose
// failure steps evFenced in place of the rest; after unlock the sends,
// closes, counters and logs. join, with evJoin, is registered under
// the granted session (a join's first effect is its Grant).
func (c *Coordinator) apply(ev event, join *session) {
	type todo struct {
		effect
		s *session
	}
	var after []todo
	c.mu.Lock()
	effs := c.st.step(ev)
	if join != nil && len(effs) > 0 {
		join.id = effs[0].session
		c.sessions[join.id] = join
	}
	logLater := func(format string, args ...any) {
		after = append(after, todo{effect: effect{kind: effLog, text: fmt.Sprintf(format, args...)}})
	}
	for i := 0; i < len(effs); i++ {
		refused := event{kind: evFenced}
		switch e := effs[i]; e.kind {
		case effFence:
			refused.seen = c.diskEpoch()
		case effAppend:
			refused.err = c.journal.Append(e.entry)
		case effSave:
			// An I/O failure is tolerated: the manifest is a recovery
			// accelerator, the journal remains the ground truth.
			if err := supervise.SaveSnapshot(c.manifestPath, c.fingerprint, c.st.manifest()); err != nil {
				logLater("farm: coordinator manifest write failed: %v", err)
			}
		case effTouch:
			if t := time.Now(); os.Chtimes(c.manifestPath, t, t) != nil {
				logLater("farm: coordinator manifest touch failed")
			}
		default: // a send to a session already dropped is moot
			if s := c.sessions[e.session]; s != nil || e.session == 0 {
				after = append(after, todo{e, s})
			}
		}
		if refused.seen > c.st.epoch || refused.err != nil {
			effs, i, after = c.st.step(refused), -1, nil
		}
	}
	if ev.kind == evDrop {
		delete(c.sessions, ev.session)
	}
	c.mu.Unlock()

	for _, e := range after {
		switch e.kind {
		case effSend:
			// A failed send is recovered by the session's own read
			// loop: its handler drops it and requeues its leases.
			if e.s.send(e.frame) != nil {
				e.s.conn.Close()
			}
		case effEnd:
			// Keep the conn open until the worker hangs up, so End is
			// never lost to a reset, but not past the drain grace.
			e.s.conn.SetDeadline(time.Now().Add(c.drainGrace))
			e.s.send(&feed.End{})
		case effClose:
			e.s.conn.Close()
		case effCount:
			metrics.Counter(e.text).Add(e.n)
		case effLog:
			c.logf("%s", e.text)
		case effProgress:
			if c.cc.Progress != nil {
				c.cc.Progress(int(e.n), c.plan.NumUnits())
			}
		case effFinish:
			close(c.done)
		}
	}
}

// handle runs one worker connection: the Join handshake, then a
// Steal/Heartbeat/Result read loop until the peer drops or the run
// ends.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	dec := feed.NewDecoder(conn)
	f, err := dec.Read()
	if err != nil {
		return
	}
	join, ok := f.(*feed.Join)
	if !ok {
		c.logf("farm: dropping connection: first frame %T, want Join", f)
		return
	}
	// An explicit Refuse lets the worker tell a fatal misconfiguration
	// from a transient connection failure.
	refuse := &feed.Refuse{}
	switch {
	case join.Version != feed.ProtocolVersion:
		refuse.Code, refuse.Reason = feed.RefuseVersion,
			fmt.Sprintf("protocol version %d, coordinator speaks %d", join.Version, feed.ProtocolVersion)
	case join.Fingerprint != c.fingerprint:
		refuse.Code, refuse.Reason = feed.RefuseFingerprint,
			fmt.Sprintf("sweep fingerprint %s, coordinator has %s", join.Fingerprint, c.fingerprint)
	}
	if refuse.Code != 0 {
		c.logf("farm: REFUSING worker %q: %s", join.Name, refuse.Reason)
		feed.NewEncoder(conn, nil).WriteRefuse(refuse)
		return
	}

	s := &session{conn: conn, enc: feed.NewEncoder(conn, nil)}
	c.apply(event{kind: evJoin, join: join, now: c.now()}, s)
	if s.id == 0 {
		s.send(&feed.End{}) // late joiner: the sweep is over
		return
	}
	defer func() { c.apply(event{kind: evDrop, session: s.id, now: c.now()}, nil) }()
	for {
		f, err := dec.Read()
		if err != nil {
			return
		}
		ev := event{session: s.id, now: c.now()}
		switch f := f.(type) {
		case *feed.Steal:
			ev.kind = evSteal
		case *feed.Heartbeat:
			ev.kind = evHeartbeat
		case *feed.Result:
			ev.kind, ev.result = evResult, f
		default:
			c.logf("farm: session %d sent unexpected %T; dropping connection", s.id, f)
			return
		}
		c.apply(ev, nil)
	}
}
