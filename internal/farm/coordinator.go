package farm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
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
// NewCoordinator and run it with Serve.
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

	// mu guards everything below, including every session's held set.
	mu          sync.Mutex
	journal     *sweep.Journal
	epoch       uint64
	groups      []groupState
	pending     []int // unleased gids with missing units; front = next out
	waiters     []*session
	sessions    map[uint64]*session
	nextSession uint64
	nextLease   uint64
	unitsTotal  int
	doneUnits   int // journaled units (restored + accepted)
	restored    int
	accepted    int
	trades      int64
	joined      int
	finished    bool
	paused      bool
	fatal       error
	done        chan struct{} // closed once finished
}

// groupState tracks one (day, pair-block) group's lease. The
// generation counter is bumped on every (re)assignment; a Result whose
// (lease, gen, session) triple does not match the current holder is a
// fenced zombie and is dropped.
type groupState struct {
	gen     uint64
	lease   uint64 // 0 = unleased
	session uint64
	expiry  time.Time
	missing map[int]bool // param indexes not yet journaled
}

// session is one connected worker. Its encoder is shared by the
// handler, the sweeper's heartbeats and waiter wake-ups; writeMu
// serializes them. held is guarded by Coordinator.mu, not writeMu.
type session struct {
	id      uint64
	name    string
	conn    net.Conn
	writeMu sync.Mutex
	enc     *feed.Encoder
	held    map[int]bool // gids leased to this session
}

func (s *session) send(f func(*feed.Encoder) error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return f(s.enc)
}

func (s *session) sendEnd() error {
	return s.send(func(e *feed.Encoder) error { return e.WriteEnd(&feed.End{}) })
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
		sessions:     map[uint64]*session{},
		done:         make(chan struct{}),
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	if c.sweepEvery <= 0 {
		c.sweepEvery = c.ttl / defaultTTLDivide
	}
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
	if err != nil {
		l.Close()
		return nil, err
	}
	journal, done, recovered, err := sweep.OpenJournal(c.cc.JournalPath, c.header)
	if err != nil {
		l.Close()
		return nil, err
	}

	c.mu.Lock()
	c.journal = journal
	c.epoch = 1
	c.unitsTotal = c.plan.NumUnits()
	c.groups = make([]groupState, c.plan.NumGroups())
	np := c.plan.NumParams()
	for gid := range c.groups {
		g := &c.groups[gid]
		g.missing = make(map[int]bool, np)
		for k := 0; k < np; k++ {
			g.missing[k] = true
		}
	}
	for id, n := range done {
		u := c.plan.UnitFromID(id)
		delete(c.groups[c.plan.GroupID(u.Day, u.Block)].missing, u.Param)
		c.restored++
		c.doneUnits++
		c.trades += int64(n)
	}
	// Cold restart / takeover: claim the next epoch (fencing the
	// previous incarnation), resume the monotonic id counters, park
	// the manifest's live leases in a rejoin grace window, and rebuild
	// the pending deque in its journaled order.
	limbo := 0
	if prior != nil {
		c.epoch = prior.Epoch + 1
		c.nextSession = prior.NextSession
		c.nextLease = prior.NextLease
		grace := c.now().Add(c.ttl)
		for _, pl := range prior.Leases {
			if pl.Gid < 0 || pl.Gid >= len(c.groups) {
				continue
			}
			g := &c.groups[pl.Gid]
			if len(g.missing) == 0 || g.lease != 0 {
				continue
			}
			g.lease, g.gen, g.session, g.expiry = pl.Lease, pl.Gen, pl.Session, grace
			limbo++
		}
	}
	inPending := map[int]bool{}
	if prior != nil {
		for _, gid := range prior.Pending {
			if gid < 0 || gid >= len(c.groups) || inPending[gid] {
				continue
			}
			g := &c.groups[gid]
			if len(g.missing) > 0 && g.lease == 0 {
				c.pending = append(c.pending, gid)
				inPending[gid] = true
			}
		}
	}
	for gid := range c.groups {
		g := &c.groups[gid]
		if len(g.missing) > 0 && g.lease == 0 && !inPending[gid] {
			c.pending = append(c.pending, gid)
		}
	}
	complete := c.doneUnits == c.unitsTotal
	if complete {
		c.finishLocked(false, nil)
	}
	// Claim the epoch durably before serving anything: from this write
	// on, the previous incarnation's journal/manifest writes bounce off
	// the fence check.
	c.saveManifestLocked()
	c.mu.Unlock()

	if prior != nil {
		metrics.Counter(MetricCoordRestarts).Inc()
		c.logf("farm: coordinator restarted under epoch %d (%d lease(s) held for rejoin, TTL %v)",
			c.epoch, limbo, c.ttl)
	}
	if recovered != nil {
		c.logf("farm: healed journal tail: %v", recovered)
	}
	if complete {
		l.Close()
		err := journal.Close()
		return c.snapshotStats(recovered), err
	}
	c.logf("farm: serving %d/%d units (%d restored), lease TTL %v, epoch %d",
		c.unitsTotal-c.doneUnits, c.unitsTotal, c.restored, c.ttl, c.epoch)

	// Watchdog: on cancel, abort every session; on finish (from any
	// path), just close the listener so Accept returns.
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			ss := c.finishLocked(false, ctx.Err())
			c.mu.Unlock()
			for _, s := range ss {
				s.conn.Close()
			}
		case <-c.done:
		}
		l.Close()
	}()

	// Lease sweeper: expiry checks plus liveness heartbeats to every
	// session (parked workers use them to reset their idle timers) and
	// a manifest touch or rewrite (standbys watch for it to judge when
	// to take over).
	go func() {
		t := time.NewTicker(c.sweepEvery)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.sweepLeases()
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
	c.mu.Lock()
	ss := c.finishLocked(false, acceptErr)
	c.mu.Unlock()
	for _, s := range ss {
		s.conn.Close()
	}
	wg.Wait()

	c.mu.Lock()
	// Final manifest, so a later run resumes exactly here. On a clean
	// finish or Limit pause every session was Ended — no lease can be
	// rejoined, so drop them all and let the next incarnation re-deal
	// immediately instead of waiting out a rejoin grace. An abort keeps
	// the lease table (its workers are alive and will rejoin); a fenced
	// stand-down skips the write — the newer incarnation owns the file.
	if c.fatal == nil {
		for gid := range c.groups {
			g := &c.groups[gid]
			if g.lease != 0 && len(g.missing) > 0 {
				g.lease, g.session = 0, 0
				c.pending = append(c.pending, gid)
			}
		}
	}
	c.saveManifestLocked()
	ferr := c.fatal
	c.mu.Unlock()
	if cerr := journal.Close(); ferr == nil {
		ferr = cerr
	}
	return c.snapshotStats(recovered), ferr
}

// snapshotStats snapshots run stats under mu.
func (c *Coordinator) snapshotStats(recovered *sweep.Corruption) *CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &CoordStats{
		UnitsTotal:    c.unitsTotal,
		UnitsRestored: c.restored,
		UnitsExecuted: c.accepted,
		Trades:        c.trades,
		WorkersJoined: c.joined,
		Epoch:         c.epoch,
		Paused:        c.paused,
		Recovered:     recovered,
	}
}

// fenceCheckLocked verifies this incarnation still owns the manifest
// epoch; it must be called before every durable write (journal append,
// manifest replace). A manifest carrying a higher epoch means a
// standby or restart has taken over: the write is refused, counted,
// and the coordinator stands down. An unreadable manifest never blocks
// the primary — fencing fails open, and the journal's CRC framing plus
// merge-level duplicate dropping keep even a lost race benign. own
// reports whether the file holds this incarnation's epoch; it does not
// after a stale writer whose check preceded our claim replaced it.
func (c *Coordinator) fenceCheckLocked() (own bool, err error) {
	m, err := readCoordManifest(c.manifestPath, c.fingerprint)
	if err != nil || m == nil {
		return false, nil
	}
	if m.Epoch > c.epoch {
		metrics.Counter(MetricCoordEpochFences).Inc()
		c.logf("farm: write refused: coordinator epoch %d fenced by epoch %d", c.epoch, m.Epoch)
		return false, fmt.Errorf("%w (own epoch %d, manifest epoch %d)", ErrFenced, c.epoch, m.Epoch)
	}
	return m.Epoch == c.epoch, nil
}

// buildManifestLocked snapshots the durable coordinator state.
func (c *Coordinator) buildManifestLocked() *coordManifest {
	m := &coordManifest{
		Epoch:       c.epoch,
		NextSession: c.nextSession,
		NextLease:   c.nextLease,
		Pending:     append([]int{}, c.pending...),
	}
	for gid := range c.groups {
		g := &c.groups[gid]
		if g.lease != 0 && len(g.missing) > 0 {
			m.Leases = append(m.Leases, coordLease{Gid: gid, Lease: g.lease, Gen: g.gen, Session: g.session})
		}
	}
	return m
}

// saveManifestLocked fence-checks, then atomically replaces the
// coordinator manifest. A fencing violation is returned (fatal); an
// I/O failure is logged but tolerated — the manifest is a recovery
// accelerator, the journal remains the ground truth.
func (c *Coordinator) saveManifestLocked() error {
	if _, err := c.fenceCheckLocked(); err != nil {
		return err
	}
	if err := supervise.SaveSnapshot(c.manifestPath, c.fingerprint, c.buildManifestLocked()); err != nil {
		c.logf("farm: coordinator manifest write failed: %v", err)
	}
	return nil
}

// appendFencedLocked fence-checks, then journals one entry.
func (c *Coordinator) appendFencedLocked(e sweep.Entry) error {
	if _, err := c.fenceCheckLocked(); err != nil {
		return err
	}
	return c.journal.Append(e)
}

// standDown transitions to the failed state (typically on a fencing
// violation) and hard-closes every session so their handlers unwind.
func (c *Coordinator) standDown(err error) {
	c.mu.Lock()
	ss := c.finishLocked(false, err)
	c.mu.Unlock()
	for _, s := range ss {
		s.conn.Close()
	}
}

// finishLocked transitions to the finished state exactly once and
// returns the sessions to notify; mu must be held. The caller decides
// how to notify (End + drain deadline on clean finish, Close on
// abort).
func (c *Coordinator) finishLocked(paused bool, err error) []*session {
	if c.finished {
		return nil
	}
	c.finished = true
	c.paused = paused
	c.fatal = err
	close(c.done)
	c.waiters = nil
	out := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		out = append(out, s)
	}
	return out
}

// endSessions notifies workers of a clean finish: End, then a read
// deadline so a wedged peer cannot hold Serve open past the grace
// period. Conns are kept open until the worker hangs up (or the
// deadline) so the End frame is never lost to a reset.
func (c *Coordinator) endSessions(ss []*session) {
	for _, s := range ss {
		s.conn.SetDeadline(time.Now().Add(c.drainGrace))
		s.sendEnd()
	}
}

// refuse sends an explicit rejection so the worker can tell a fatal
// misconfiguration from a transient connection failure.
func refuse(conn net.Conn, code uint16, reason string) {
	feed.NewEncoder(conn, nil).WriteRefuse(&feed.Refuse{Code: code, Reason: reason})
}

// handle runs one worker connection: Join/Grant handshake (with the
// rejoin re-confirmation path), then a Steal/Heartbeat/Result read
// loop until the peer drops or the run ends.
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
	if join.Version != feed.ProtocolVersion {
		c.logf("farm: REFUSING worker %q: protocol version %d, want %d", join.Name, join.Version, feed.ProtocolVersion)
		refuse(conn, feed.RefuseVersion,
			fmt.Sprintf("protocol version %d, coordinator speaks %d", join.Version, feed.ProtocolVersion))
		return
	}
	if join.Fingerprint != c.fingerprint {
		c.logf("farm: REFUSING worker %q: sweep fingerprint %s, coordinator has %s (mismatched config?)",
			join.Name, join.Fingerprint, c.fingerprint)
		refuse(conn, feed.RefuseFingerprint,
			fmt.Sprintf("sweep fingerprint %s, coordinator has %s", join.Fingerprint, c.fingerprint))
		return
	}

	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		// Late joiner: the sweep is over; tell it so it exits cleanly.
		feed.NewEncoder(conn, nil).WriteEnd(&feed.End{})
		return
	}
	c.nextSession++
	s := &session{
		id:   c.nextSession,
		name: join.Name,
		conn: conn,
		enc:  feed.NewEncoder(conn, nil),
		held: map[int]bool{},
	}
	c.sessions[s.id] = s
	c.joined++
	// Rejoin: re-confirm the groups the prior session still holds (so
	// the worker's in-flight compute and unacked results survive the
	// coordinator's death) and reclaim the ones it no longer claims.
	var reconfirm []*feed.Lease
	reclaimed := 0
	if join.PriorSession != 0 {
		held := make(map[uint64]bool, len(join.HeldLeases))
		for _, id := range join.HeldLeases {
			held[id] = true
		}
		for gid := range c.groups {
			g := &c.groups[gid]
			if g.lease == 0 || g.session != join.PriorSession || len(g.missing) == 0 {
				continue
			}
			if held[g.lease] {
				reconfirm = append(reconfirm, c.leaseLocked(gid, s))
			} else {
				g.lease, g.session = 0, 0
				c.pending = append([]int{gid}, c.pending...)
				reclaimed++
			}
		}
	}
	ferr := error(nil)
	if len(reconfirm) > 0 || reclaimed > 0 {
		ferr = c.saveManifestLocked()
	}
	grant := &feed.Grant{Session: s.id, Epoch: c.epoch, UnitsTotal: uint64(c.unitsTotal), UnitsDone: uint64(c.doneUnits)}
	c.mu.Unlock()
	if ferr != nil {
		c.standDown(ferr)
		return
	}

	metrics.Counter(MetricWorkersJoined).Inc()
	if join.PriorSession != 0 {
		metrics.Counter(MetricCoordRejoins).Inc()
		c.logf("farm: worker %q rejoined as session %d (was session %d under epoch %d; %d group(s) re-confirmed, %d reclaimed)",
			join.Name, s.id, join.PriorSession, join.PriorEpoch, len(reconfirm), reclaimed)
	} else {
		c.logf("farm: worker %q joined as session %d", join.Name, s.id)
	}
	defer c.dropSession(s)
	if s.send(func(e *feed.Encoder) error { return e.WriteGrant(grant) }) != nil {
		return
	}
	for _, l := range reconfirm {
		if s.send(func(e *feed.Encoder) error { return e.WriteLease(l) }) != nil {
			return
		}
		metrics.Counter(MetricLeasesGranted).Inc()
	}
	if reclaimed > 0 {
		c.wakeWaiters()
	}

	for {
		f, err := dec.Read()
		if err != nil {
			return
		}
		switch f := f.(type) {
		case *feed.Steal:
			if c.requestWork(s) != nil {
				return
			}
		case *feed.Heartbeat:
			c.renew(s)
		case *feed.Result:
			if err := c.acceptResult(s, f); err != nil {
				c.logf("farm: session %d (%q): %v; dropping connection", s.id, s.name, err)
				return
			}
		default:
			c.logf("farm: session %d sent unexpected %T; dropping connection", s.id, f)
			return
		}
	}
}

// requestWork answers a Steal: the front pending group, a parking slot
// if the queue is dry, or End if the run is over. The returned error
// is a send failure or a fencing stand-down.
func (c *Coordinator) requestWork(s *session) error {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return s.sendEnd()
	}
	if len(c.pending) == 0 {
		// A rejoined worker can Steal while already parked (its
		// unsolicited re-confirm leases desynchronize the Steal/Lease
		// cadence); never park the same session twice.
		parked := false
		for _, w := range c.waiters {
			if w == s {
				parked = true
				break
			}
		}
		if !parked {
			c.waiters = append(c.waiters, s)
		}
		c.mu.Unlock()
		return nil
	}
	gid := c.pending[0]
	c.pending = c.pending[1:]
	lease := c.leaseLocked(gid, s)
	ferr := c.saveManifestLocked()
	c.mu.Unlock()
	if ferr != nil {
		c.standDown(ferr)
		return ferr
	}
	metrics.Counter(MetricLeasesGranted).Inc()
	return s.send(func(e *feed.Encoder) error { return e.WriteLease(lease) })
}

// leaseLocked assigns gid to s, bumping the fencing generation; mu
// must be held.
func (c *Coordinator) leaseLocked(gid int, s *session) *feed.Lease {
	g := &c.groups[gid]
	g.gen++
	c.nextLease++
	g.lease = c.nextLease
	g.session = s.id
	g.expiry = c.now().Add(c.ttl)
	s.held[gid] = true
	params := make([]int, 0, len(g.missing))
	for k := range g.missing {
		params = append(params, k)
	}
	sort.Ints(params)
	l := &feed.Lease{
		ID:        g.lease,
		Gen:       g.gen,
		Day:       uint32(gid / c.plan.NumBlocks()),
		Block:     uint32(gid % c.plan.NumBlocks()),
		TTLMillis: uint32(c.ttl / time.Millisecond),
		Params:    make([]uint16, len(params)),
	}
	for i, k := range params {
		l.Params[i] = uint16(k)
	}
	return l
}

// renew extends every lease s holds; called on worker heartbeats.
func (c *Coordinator) renew(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	exp := c.now().Add(c.ttl)
	for gid := range s.held {
		g := &c.groups[gid]
		if g.session == s.id && g.lease != 0 {
			g.expiry = exp
		}
	}
}

// acceptResult validates one Result against the coordinator epoch and
// the group's current lease, journals it, and acks it back so the
// worker can drop its redelivery copy. A non-nil return is a protocol
// violation or fencing stand-down that drops the connection; fenced
// zombies and duplicates are dropped silently (counted) because the
// journal must only ever grow by currently-leased units.
func (c *Coordinator) acceptResult(s *session, r *feed.Result) error {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		metrics.Counter(MetricResultsLate).Inc()
		return nil
	}
	id := int(r.Unit)
	if id < 0 || id >= c.plan.NumUnits() {
		c.mu.Unlock()
		return fmt.Errorf("result for unit %d outside plan of %d units", id, c.plan.NumUnits())
	}
	if r.Epoch != c.epoch {
		c.mu.Unlock()
		metrics.Counter(MetricResultsZombie).Inc()
		c.logf("farm: fenced stale-epoch result for unit %d from session %d (epoch %d, current %d)",
			id, s.id, r.Epoch, c.epoch)
		return nil
	}
	u := c.plan.UnitFromID(id)
	gid := c.plan.GroupID(u.Day, u.Block)
	g := &c.groups[gid]
	if g.lease != r.Lease || g.gen != r.Gen || g.session != s.id {
		c.mu.Unlock()
		metrics.Counter(MetricResultsZombie).Inc()
		c.logf("farm: fenced zombie result for unit %d from session %d (lease %d gen %d; current lease %d gen %d session %d)",
			id, s.id, r.Lease, r.Gen, g.lease, g.gen, g.session)
		return nil
	}
	if !g.missing[u.Param] {
		c.mu.Unlock()
		metrics.Counter(MetricResultsDuplicate).Inc()
		// Already journaled (e.g. the ack for it was lost with the old
		// connection): ack again so the worker clears its buffer.
		s.send(func(e *feed.Encoder) error { return e.WriteResultAck(&feed.ResultAck{Unit: r.Unit}) })
		return nil
	}
	lo, hi := c.plan.BlockRange(u.Block)
	if len(r.Rets) != hi-lo {
		c.mu.Unlock()
		return fmt.Errorf("result for unit %d carries %d rows, want %d", id, len(r.Rets), hi-lo)
	}
	if err := c.appendFencedLocked(sweep.Entry{U: id, Rets: r.Rets}); err != nil {
		ss := c.finishLocked(false, err)
		c.mu.Unlock()
		for _, x := range ss {
			x.conn.Close()
		}
		return err
	}
	delete(g.missing, u.Param)
	g.expiry = c.now().Add(c.ttl) // progress is as good as a heartbeat
	groupDone := len(g.missing) == 0
	if groupDone {
		g.lease, g.session = 0, 0
		delete(s.held, gid)
	}
	c.doneUnits++
	c.accepted++
	for _, row := range r.Rets {
		c.trades += int64(len(row))
	}
	recovered := r.Flags&feed.ResultRecovered != 0
	doneNow, total := c.doneUnits, c.unitsTotal
	var ended []*session
	ferr := error(nil)
	if c.doneUnits == c.unitsTotal {
		ended = c.finishLocked(false, nil)
	} else if c.cc.Limit > 0 && c.accepted >= c.cc.Limit {
		ended = c.finishLocked(true, nil)
	} else if groupDone {
		ferr = c.saveManifestLocked()
	}
	c.mu.Unlock()

	metrics.Counter(MetricResultsAccepted).Inc()
	if recovered {
		metrics.Counter(MetricCoordRecovered).Inc()
	}
	s.send(func(e *feed.Encoder) error { return e.WriteResultAck(&feed.ResultAck{Unit: r.Unit}) })
	if c.cc.Progress != nil {
		c.cc.Progress(doneNow, total)
	}
	if ended != nil {
		c.endSessions(ended)
	}
	if ferr != nil {
		c.standDown(ferr)
		return ferr
	}
	return nil
}

// dropSession reclaims a disconnected worker's leases immediately —
// no TTL wait when the TCP connection itself tells us the holder is
// gone — and re-deals them to parked workers.
func (c *Coordinator) dropSession(s *session) {
	c.mu.Lock()
	delete(c.sessions, s.id)
	ws := c.waiters[:0]
	for _, w := range c.waiters {
		if w != s {
			ws = append(ws, w)
		}
	}
	c.waiters = ws
	reclaimed := 0
	for gid := range s.held {
		g := &c.groups[gid]
		if g.session == s.id && g.lease != 0 && len(g.missing) > 0 {
			g.lease, g.session = 0, 0
			c.pending = append([]int{gid}, c.pending...)
			reclaimed++
		}
		delete(s.held, gid)
	}
	ferr := error(nil)
	if reclaimed > 0 && !c.finished {
		ferr = c.saveManifestLocked()
	}
	finished := c.finished
	c.mu.Unlock()
	if ferr != nil {
		c.standDown(ferr)
		return
	}
	if reclaimed > 0 {
		metrics.Counter(MetricLeaseReclaims).Add(int64(reclaimed))
		c.logf("farm: session %d (%q) disconnected holding %d group(s); requeued", s.id, s.name, reclaimed)
		c.wakeWaiters()
	} else if !finished {
		c.logf("farm: session %d (%q) disconnected", s.id, s.name)
	}
}

// sweepLeases expires overdue leases (requeued at the front so lost
// work re-deals first), heartbeats every session so parked workers
// know the coordinator is alive, and refreshes the manifest, whose
// modification time is the on-disk liveness beacon. It is also the
// idle-path fencing probe: a stale coordinator with no result traffic
// still notices a takeover within one tick. It rewrites the manifest
// only when leases expired or the file lost our claim; otherwise it
// just touches it, which never replaces a successor's claim that lands
// between the fence check and the touch.
func (c *Coordinator) sweepLeases() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	own, ferr := c.fenceCheckLocked()
	if ferr != nil {
		c.mu.Unlock()
		c.standDown(ferr)
		return
	}
	now := c.now()
	var expired []int
	for gid := range c.groups {
		g := &c.groups[gid]
		if g.lease != 0 && len(g.missing) > 0 && g.expiry.Before(now) {
			g.lease, g.session = 0, 0
			expired = append(expired, gid)
		}
	}
	if len(expired) > 0 || !own {
		c.pending = append(append([]int{}, expired...), c.pending...)
		ferr = c.saveManifestLocked()
	} else if t := time.Now(); os.Chtimes(c.manifestPath, t, t) != nil {
		c.logf("farm: coordinator manifest touch failed")
	}
	ss := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		ss = append(ss, s)
	}
	c.mu.Unlock()
	if ferr != nil {
		c.standDown(ferr)
		return
	}

	if len(expired) > 0 {
		metrics.Counter(MetricLeaseExpiries).Add(int64(len(expired)))
		c.logf("farm: %d lease(s) expired after %v of silence; reassigning", len(expired), c.ttl)
	}
	for _, s := range ss {
		s.send(func(e *feed.Encoder) error { return e.WriteHeartbeat(&feed.Heartbeat{Seq: s.id}) })
	}
	if len(expired) > 0 {
		c.wakeWaiters()
	}
}

// wakeWaiters pairs parked workers with pending groups until one side
// runs dry.
func (c *Coordinator) wakeWaiters() {
	for {
		c.mu.Lock()
		if c.finished {
			ws := c.waiters
			c.waiters = nil
			c.mu.Unlock()
			for _, s := range ws {
				s.sendEnd()
			}
			return
		}
		if len(c.waiters) == 0 || len(c.pending) == 0 {
			c.mu.Unlock()
			return
		}
		s := c.waiters[0]
		c.waiters = c.waiters[1:]
		gid := c.pending[0]
		c.pending = c.pending[1:]
		lease := c.leaseLocked(gid, s)
		ferr := c.saveManifestLocked()
		c.mu.Unlock()
		if ferr != nil {
			c.standDown(ferr)
			return
		}
		metrics.Counter(MetricLeasesGranted).Inc()
		// A failed send is recovered by the session's own read loop
		// (its handler will drop and requeue the lease).
		s.send(func(e *feed.Encoder) error { return e.WriteLease(lease) })
	}
}
