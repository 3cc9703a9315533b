package farm

import (
	"fmt"
	"slices"
	"time"

	"marketminer/internal/feed"
	"marketminer/internal/sweep"
)

// The coordinator's decisions — grant, renew, reclaim, expire, fence,
// accept, finish — are made by coordState.step, a pure state machine
// with no I/O, locks or clock reads. The Coordinator shell feeds it
// events and carries out its effects; the tests' explorer drives it
// against a model disk.

type evKind uint8

const (
	evRestore   evKind = iota // prior manifest and journaled units: build the tables, claim the epoch
	evJoin                    // a validated Join or rejoin on a new connection
	evSteal                   // a worker asks for work
	evHeartbeat               // a worker renews its leases
	evResult                  // a worker delivers one unit
	evDrop                    // a session's connection ended
	evTick                    // sweeper tick: expire at now, fence probe with the epoch seen on disk
	evFenced                  // a durable write was refused: a higher epoch seen on disk, or err
	evAbort                   // cancel or listener failure: stop and close every session
	evRelease                 // every session is gone: release a clean stop's leases, final manifest
)

type event struct {
	kind    evKind
	session uint64
	now     time.Time
	seen    uint64 // evTick, evFenced: the manifest epoch on disk; 0 when missing or unreadable
	err     error  // evFenced (a journal error), evAbort
	join    *feed.Join
	result  *feed.Result
	prior   *coordManifest // evRestore
	done    map[int]int    // evRestore: journaled unit → trades
}

type effKind uint8

const (
	// Durable effects: the shell runs them in order under its lock.
	effFence  effKind = iota // re-read the manifest epoch; a higher one steps evFenced and drops the rest of the step
	effAppend                // journal entry
	effSave                  // replace the manifest with coordState.manifest()
	effTouch                 // move the manifest's modification time (the standby's heartbeat)
	// The rest run after the lock is released, in order.
	effSend     // frame to session
	effEnd      // End to session, then a drain deadline
	effClose    // hard-close session
	effCount    // metric text += n
	effLog      // log line text
	effProgress // Progress(n journaled units)
	effFinish   // the run is over: stop accepting
)

type effect struct {
	kind    effKind
	session uint64
	frame   feed.Frame
	entry   sweep.Entry
	text    string
	n       int64
}

// groupState tracks one (day, pair-block) group's lease. Every
// (re)assignment bumps gen; a Result whose (lease, gen, session) does
// not match the current holder is a fenced zombie.
type groupState struct {
	gen     uint64
	lease   uint64 // 0 = unleased
	session uint64
	expiry  time.Time
	missing map[int]bool // param indexes not yet journaled
}

// coordState is everything one coordinator incarnation decides with.
type coordState struct {
	plan  *sweep.Plan
	ttl   time.Duration
	limit int

	epoch       uint64
	groups      []groupState
	pending     []int             // unleased gids with missing units; front = next out
	waiters     []uint64          // parked sessions, first = next woken
	sessions    map[uint64]string // live session id → worker name
	nextSession uint64
	nextLease   uint64
	doneUnits   int // journaled units (restored + accepted)
	restored    int
	accepted    int
	trades      int64
	joined      int
	finished    bool
	paused      bool
	fatal       error

	out     []effect // the step in progress
	dirty   bool     // the step changed the lease table or the pending order
	settled bool     // finished before the step in progress
}

// step applies one event and returns the effects to carry out. A step
// that changes the lease table or pending order ends with one fenced
// manifest save, unless it finished the run. The shell runs every
// durable effect before any send, so a ResultAck follows its append.
func (st *coordState) step(ev event) []effect {
	st.out, st.dirty = nil, false
	if ev.kind != evFenced {
		st.settled = st.finished
	}
	switch ev.kind {
	case evRestore:
		st.restore(ev)
	case evJoin:
		st.join(ev)
	case evSteal:
		switch {
		case st.finished:
			st.send(ev.session, &feed.End{})
		case len(st.pending) > 0:
			st.deal(ev.session, ev.now)
		default:
			st.park(ev.session)
		}
	case evHeartbeat:
		for gid := range st.groups {
			if g := &st.groups[gid]; g.session == ev.session && g.lease != 0 {
				g.expiry = ev.now.Add(st.ttl)
			}
		}
	case evResult:
		st.accept(ev)
	case evDrop:
		st.drop(ev)
	case evTick:
		st.tick(ev)
	case evFenced:
		st.standDown(ev.seen, ev.err)
	case evAbort:
		st.finish(false, ev.err)
	case evRelease:
		if st.fatal == nil {
			// Every session was Ended and nobody can rejoin: the next
			// incarnation re-deals at once, with no rejoin grace.
			st.free(func(*groupState) bool { return true })
		}
		st.durable(effect{kind: effSave})
	}
	if st.dirty && !st.finished {
		st.durable(effect{kind: effSave})
	}
	return st.out
}

func (st *coordState) emit(e effect) { st.out = append(st.out, e) }

func (st *coordState) send(s uint64, f feed.Frame) {
	st.emit(effect{kind: effSend, session: s, frame: f})
}

func (st *coordState) count(name string, n int) {
	st.emit(effect{kind: effCount, text: name, n: int64(n)})
}

func (st *coordState) logf(format string, args ...any) {
	st.emit(effect{kind: effLog, text: fmt.Sprintf(format, args...)})
}

// durable emits a journal append or manifest save behind the fence
// check that must precede every durable write.
func (st *coordState) durable(w effect) { st.out = append(st.out, effect{kind: effFence}, w) }

// restore builds the tables from the journal's units and, after a
// restart or takeover, the prior manifest: claim the next epoch (the
// fence against the previous incarnation), resume the id counters,
// hold the prior leases one TTL for their owners to rejoin, and keep
// the recorded pending order. The claim is saved before serving.
func (st *coordState) restore(ev event) {
	st.epoch = 1
	st.groups = make([]groupState, st.plan.NumGroups())
	for gid := range st.groups {
		g := &st.groups[gid]
		g.missing = make(map[int]bool, st.plan.NumParams())
		for k := 0; k < st.plan.NumParams(); k++ {
			g.missing[k] = true
		}
	}
	for id, n := range ev.done {
		u := st.plan.UnitFromID(id)
		delete(st.groups[st.plan.GroupID(u.Day, u.Block)].missing, u.Param)
		st.restored++
		st.doneUnits++
		st.trades += int64(n)
	}
	var order []int // the recorded pending order, then every other group
	inPending := map[int]bool{}
	open := func(gid int) bool { // unfinished, unleased and not yet queued
		return gid >= 0 && gid < len(st.groups) && len(st.groups[gid].missing) > 0 && st.groups[gid].lease == 0 && !inPending[gid]
	}
	if p := ev.prior; p != nil {
		st.epoch, st.nextSession, st.nextLease = p.Epoch+1, p.NextSession, p.NextLease
		limbo := 0
		for _, pl := range p.Leases {
			if open(pl.Gid) {
				g := &st.groups[pl.Gid]
				g.lease, g.gen, g.session, g.expiry = pl.Lease, pl.Gen, pl.Session, ev.now.Add(st.ttl)
				limbo++
			}
		}
		st.count(MetricCoordRestarts, 1)
		st.logf("farm: coordinator restarted under epoch %d (%d lease(s) held for rejoin, TTL %v)", st.epoch, limbo, st.ttl)
		order = append(order, p.Pending...)
	}
	for gid := range st.groups {
		order = append(order, gid)
	}
	for _, gid := range order {
		if open(gid) {
			st.pending = append(st.pending, gid)
			inPending[gid] = true
		}
	}
	st.durable(effect{kind: effSave})
	if total := st.plan.NumUnits(); st.doneUnits < total {
		st.logf("farm: serving %d/%d units (%d restored), lease TTL %v, epoch %d",
			total-st.doneUnits, total, st.restored, st.ttl, st.epoch)
	} else {
		st.finish(false, nil)
	}
}

// join registers a session and grants it; a rejoin re-confirms the
// groups the prior session still holds (so the worker's in-flight
// compute and unacked results survive a coordinator death) and
// reclaims the ones it no longer claims. The Grant is the step's first
// effect. A join after the run finished gets no Grant.
func (st *coordState) join(ev event) {
	if st.finished {
		return
	}
	st.nextSession++
	id, j := st.nextSession, ev.join
	st.send(id, &feed.Grant{Session: id, Epoch: st.epoch, UnitsTotal: uint64(st.plan.NumUnits()), UnitsDone: uint64(st.doneUnits)})
	st.sessions[id] = j.Name
	st.joined++
	st.count(MetricWorkersJoined, 1)
	if j.PriorSession == 0 {
		st.logf("farm: worker %q joined as session %d", j.Name, id)
		return
	}
	reconfirmed := 0
	for gid := range st.groups {
		if g := &st.groups[gid]; g.lease != 0 && g.session == j.PriorSession && len(g.missing) > 0 && slices.Contains(j.HeldLeases, g.lease) {
			st.lease(gid, id, ev.now)
			reconfirmed++
		}
	}
	reclaimed := st.free(func(g *groupState) bool { return g.session == j.PriorSession })
	st.count(MetricCoordRejoins, 1)
	st.logf("farm: worker %q rejoined as session %d (was session %d under epoch %d; %d group(s) re-confirmed, %d reclaimed)",
		j.Name, id, j.PriorSession, j.PriorEpoch, reconfirmed, reclaimed)
	st.wake(ev.now)
}

// park queues a session for the next freed group. A rejoined worker
// can Steal while already parked (its unsolicited re-confirm leases
// desynchronize the Steal/Lease cadence); never park it twice.
func (st *coordState) park(s uint64) {
	if !slices.Contains(st.waiters, s) {
		st.waiters = append(st.waiters, s)
	}
}

// deal leases the front pending group to s.
func (st *coordState) deal(s uint64, now time.Time) {
	gid := st.pending[0]
	st.pending = st.pending[1:]
	st.lease(gid, s, now)
}

// wake pairs parked sessions with pending groups until one side runs
// dry.
func (st *coordState) wake(now time.Time) {
	for !st.finished && len(st.waiters) > 0 && len(st.pending) > 0 {
		s := st.waiters[0]
		st.waiters = st.waiters[1:]
		st.deal(s, now)
	}
}

// lease assigns gid to session s under a fresh lease id and a bumped
// fencing generation, and sends the Lease with the missing params.
func (st *coordState) lease(gid int, s uint64, now time.Time) {
	g := &st.groups[gid]
	g.gen++
	st.nextLease++
	g.lease, g.session, g.expiry = st.nextLease, s, now.Add(st.ttl)
	l := &feed.Lease{ID: g.lease, Gen: g.gen, Day: uint32(gid / st.plan.NumBlocks()), Block: uint32(gid % st.plan.NumBlocks()),
		TTLMillis: uint32(st.ttl / time.Millisecond)}
	for k := range g.missing {
		l.Params = append(l.Params, uint16(k))
	}
	slices.Sort(l.Params)
	st.dirty = true
	st.count(MetricLeasesGranted, 1)
	st.send(s, l)
}

// free returns every leased, unfinished group match selects to the
// front of the pending deque, in gid order, so lost work re-deals
// first.
func (st *coordState) free(match func(*groupState) bool) int {
	var gids []int
	for gid := range st.groups {
		if g := &st.groups[gid]; g.lease != 0 && len(g.missing) > 0 && match(g) {
			g.lease, g.session = 0, 0
			gids = append(gids, gid)
		}
	}
	if len(gids) > 0 {
		st.pending = append(gids, st.pending...)
		st.dirty = true
	}
	return len(gids)
}

// accept journals and acks one Result that matches the epoch and the
// group's current lease. Zombies and duplicates are counted and
// dropped; a protocol violation closes the connection.
func (st *coordState) accept(ev event) {
	s, r := ev.session, ev.result
	id := int(r.Unit)
	if st.finished {
		st.count(MetricResultsLate, 1)
		return
	}
	if id < 0 || id >= st.plan.NumUnits() {
		st.reject(s, "result for unit %d outside plan of %d units", id, st.plan.NumUnits())
		return
	}
	if r.Epoch != st.epoch {
		st.count(MetricResultsZombie, 1)
		st.logf("farm: fenced stale-epoch result for unit %d from session %d (epoch %d, current %d)", id, s, r.Epoch, st.epoch)
		return
	}
	u := st.plan.UnitFromID(id)
	gid := st.plan.GroupID(u.Day, u.Block)
	g := &st.groups[gid]
	if g.lease != r.Lease || g.gen != r.Gen || g.session != s {
		st.count(MetricResultsZombie, 1)
		st.logf("farm: fenced zombie result for unit %d from session %d (lease %d gen %d; current lease %d gen %d session %d)",
			id, s, r.Lease, r.Gen, g.lease, g.gen, g.session)
		return
	}
	if !g.missing[u.Param] {
		// Already journaled (e.g. the ack for it was lost with the old
		// connection): ack again so the worker clears its buffer.
		st.count(MetricResultsDuplicate, 1)
		st.send(s, &feed.ResultAck{Unit: r.Unit})
		return
	}
	if lo, hi := st.plan.BlockRange(u.Block); len(r.Rets) != hi-lo {
		st.reject(s, "result for unit %d carries %d rows, want %d", id, len(r.Rets), hi-lo)
		return
	}
	st.durable(effect{kind: effAppend, entry: sweep.Entry{U: id, Rets: r.Rets}})
	delete(g.missing, u.Param)
	g.expiry = ev.now.Add(st.ttl) // progress is as good as a heartbeat
	if len(g.missing) == 0 {
		g.lease, g.session = 0, 0
		st.dirty = true
	}
	st.doneUnits++
	st.accepted++
	for _, row := range r.Rets {
		st.trades += int64(len(row))
	}
	st.count(MetricResultsAccepted, 1)
	if r.Flags&feed.ResultRecovered != 0 {
		st.count(MetricCoordRecovered, 1)
	}
	st.send(s, &feed.ResultAck{Unit: r.Unit})
	st.emit(effect{kind: effProgress, n: int64(st.doneUnits)})
	if st.doneUnits == st.plan.NumUnits() {
		st.finish(false, nil)
	} else if st.limit > 0 && st.accepted >= st.limit {
		st.finish(true, nil)
	}
}

func (st *coordState) reject(s uint64, format string, args ...any) {
	st.logf("farm: session %d (%q): %s; dropping connection", s, st.sessions[s], fmt.Sprintf(format, args...))
	st.emit(effect{kind: effClose, session: s})
}

// drop reclaims a disconnected session's leases at once — no TTL wait
// when the connection itself says the holder is gone — and re-deals
// them to parked workers. Once the run is finished it reclaims
// nothing: an abort's leases must reach the release save so their
// holders can rejoin the next incarnation, and a clean stop's release
// frees every lease itself.
func (st *coordState) drop(ev event) {
	s := ev.session
	name := st.sessions[s]
	delete(st.sessions, s)
	st.waiters = slices.DeleteFunc(st.waiters, func(w uint64) bool { return w == s })
	if st.finished {
		return
	}
	if n := st.free(func(g *groupState) bool { return g.session == s }); n > 0 {
		st.count(MetricLeaseReclaims, n)
		st.logf("farm: session %d (%q) disconnected holding %d group(s); requeued", s, name, n)
		st.wake(ev.now)
	} else {
		st.logf("farm: session %d (%q) disconnected", s, name)
	}
}

// tick is the idle path's fence probe: it expires overdue leases,
// heartbeats every session, and rewrites the manifest when leases
// expired or the file lost this incarnation's claim. Otherwise it only
// touches it, which cannot replace a claim landing after the probe.
func (st *coordState) tick(ev event) {
	if st.finished {
		return
	}
	if ev.seen > st.epoch {
		st.standDown(ev.seen, nil)
		return
	}
	if n := st.free(func(g *groupState) bool { return g.expiry.Before(ev.now) }); n > 0 {
		st.count(MetricLeaseExpiries, n)
		st.logf("farm: %d lease(s) expired after %v of silence; reassigning", n, st.ttl)
	}
	if ev.seen != st.epoch {
		st.dirty = true
	} else if !st.dirty {
		st.emit(effect{kind: effTouch})
	}
	for _, id := range st.live() {
		st.send(id, &feed.Heartbeat{Seq: id})
	}
	st.wake(ev.now)
}

// standDown fails the incarnation after a refused durable write: seen
// is the higher epoch a fence check found (err is then nil), or err is
// the journal's own failure. A finish the refused step itself made is
// undone first — its End and acks never went out.
func (st *coordState) standDown(seen uint64, err error) {
	if err == nil {
		st.count(MetricCoordEpochFences, 1)
		st.logf("farm: write refused: coordinator epoch %d fenced by epoch %d", st.epoch, seen)
		err = fmt.Errorf("%w (own epoch %d, manifest epoch %d)", ErrFenced, st.epoch, seen)
	}
	if !st.settled {
		st.finished = false
		st.finish(false, err)
	}
}

// finish transitions to the finished state exactly once: End to every
// session on a clean finish or Limit pause, a hard close on an abort.
func (st *coordState) finish(paused bool, err error) {
	if st.finished {
		return
	}
	st.finished, st.paused, st.fatal = true, paused, err
	st.waiters = nil
	kind := effEnd
	if err != nil {
		kind = effClose
	}
	for _, id := range st.live() {
		st.emit(effect{kind: kind, session: id})
	}
	st.emit(effect{kind: effFinish})
}

// live lists the live sessions in id order, so that a step's effects
// are a function of the state and the event.
func (st *coordState) live() []uint64 {
	ids := make([]uint64, 0, len(st.sessions))
	for id := range st.sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// manifest snapshots the durable coordinator state.
func (st *coordState) manifest() *coordManifest {
	m := &coordManifest{
		Epoch:       st.epoch,
		NextSession: st.nextSession,
		NextLease:   st.nextLease,
		Pending:     append([]int{}, st.pending...),
	}
	for gid := range st.groups {
		if g := &st.groups[gid]; g.lease != 0 && len(g.missing) > 0 {
			m.Leases = append(m.Leases, coordLease{Gid: gid, Lease: g.lease, Gen: g.gen, Session: g.session})
		}
	}
	return m
}
