package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/strategy"
	"marketminer/internal/sweep"
)

// The explorer drives coordState.step — the production decision core —
// through every interleaving of a small farm: coordinator incarnations
// that start (a restart when the previous one crashed, a takeover when
// it is still alive), tick and crash, and workers that join, rejoin,
// steal, deliver, lose their link or die, against one model
// disk (journal records + manifest) shared by every incarnation, with
// sweeper ticks that expire every live lease. It mirrors the shell:
// a step's durable effects run one per explorer move, each append or
// save behind its own fence re-read, so another incarnation can act —
// or this one crash — between a check and its write; the step's sends
// are delivered once its durable effects are done. States are deduped
// by a 64-bit digest of everything that can influence later moves.
//
// Asserted after every move:
//   - every journal record holds the rows computed for the unit it
//     names, so the deduped journal is the single-host result;
//   - no unit is lost: in every live, unfinished incarnation each group
//     with a missing unit is pending exactly once or leased, never both,
//     and a run that finishes complete has every unit journaled;
//   - no durable write by epoch e runs without its own fence check, or
//     after that check saw an epoch above e;
//   - an abort keeps its leases: every lease live when an incarnation
//     aborts is in the manifest its release saves, so the next
//     incarnation holds it for its worker's rejoin.
//
// Worker moves touch neither the disk nor a step's durable effects, so
// they are only enabled between steps. Reading a frame is local to a
// worker and a frame only ever joins the back of an inbox, so workers
// read eagerly, and a link fails only with an empty inbox. That drops
// one kind of state, the link failing between an ack's send and its
// read, whose worker and disk a crash between the append and the ack
// still produces.

type xBound struct {
	groups       int  // the three units form 1 group of 3 params or 3 groups of 1
	incarnations int  // coordinator incarnations started, restarts and takeovers included
	alive        int  // incarnations alive at once
	joins        int  // Join handshakes, all workers together
	expiries     int  // sweeper ticks that find every live lease overdue
	aborts       int  // aborts (cancel or listener failure) with live sessions
	mutant       bool // drop the fence re-read before journal appends
}

const (
	xWorkers = 2
	xTTL     = time.Second
)

var errXAbort = errors.New("listener failed")

type xCoord struct {
	st        *coordState
	durable   []effect // the step in progress, run under the shell's lock
	after     []effect // its sends, delivered once durable is empty
	drops     []uint64 // sessions whose connection ended; their handlers' evDrop is due
	checked   bool     // a fence check ran since the last durable write
	sawHigher bool     // and saw an epoch above this incarnation's
	alive     bool
	released  bool
	atAbort   []coordLease // the leases live when this incarnation aborted
	sessions  uint64       // bit i: this incarnation granted session i
	leases    uint64       // bit i: this incarnation issued lease i
}

type xWorker struct {
	conn      int    // incarnation connected to; -1 when none
	link      uint64 // the session the connection was registered under
	inbox     []feed.Frame
	granted   bool
	want      bool // owes a Steal
	lease     *feed.Lease
	todo      []int // units of lease still to deliver
	sessionID uint64
	epoch     uint64
	held      [3]uint64 // gid → the lease id last received for it
	unacked   uint8     // bit u: unit u delivered, its ack not yet read
	done      bool
}

type xWorld struct {
	b        *xBound
	plan     *sweep.Plan
	journal  uint8 // bit u: unit u has a record
	manifest *coordManifest
	coords   []*xCoord
	workers  [xWorkers]*xWorker
	expired  int // expiries used
	aborted  int // aborts used
	joins    int
	reissued bool // an incarnation issued a session or lease id an earlier one had issued
}

type xExplorer struct {
	seen     map[uint64]bool
	buf      [xWorkers + 1]xKey
	states   int
	reissues int
	err      error
}

func newXWorld(b *xBound) *xWorld {
	plan := &sweep.Plan{Levels: make([]strategy.Params, 3), Types: []corr.Type{corr.Pearson}, Days: 1, NumPairs: 1, BlockSize: 1}
	if b.groups == 3 {
		plan.Levels, plan.NumPairs = plan.Levels[:1], 3
	}
	w := &xWorld{b: b, plan: plan}
	for i := range w.workers {
		w.workers[i] = &xWorker{conn: -1}
	}
	return w
}

// now is the model's clock. Every lease is granted or renewed at now
// and outlives every ordinary tick; an expiry is a tick a TTL later, on
// which every live lease is overdue — a partition long enough to lose
// them all. So heartbeats move nothing, and no expiry enters the key.
func (w *xWorld) now() time.Time { return time.Unix(1e9, 0) }

func (w *xWorld) diskEpoch() uint64 {
	if w.manifest == nil {
		return 0
	}
	return w.manifest.Epoch
}

func (w *xWorld) gid(u int) int {
	v := w.plan.UnitFromID(u)
	return w.plan.GroupID(v.Day, v.Block)
}

// clone deep-copies the world; effects, frames and manifests are never
// mutated in place, so they are shared.
func (w *xWorld) clone() *xWorld {
	n := *w
	n.coords = make([]*xCoord, len(w.coords))
	for i, c := range w.coords {
		cc := *c
		if c.alive {
			st := *c.st
			st.groups = make([]groupState, len(c.st.groups))
			for gid, g := range c.st.groups {
				m := make(map[int]bool, len(g.missing))
				for p := range g.missing {
					m[p] = true
				}
				g.missing = m
				st.groups[gid] = g
			}
			st.pending = append([]int(nil), c.st.pending...)
			st.waiters = append([]uint64(nil), c.st.waiters...)
			st.sessions = make(map[uint64]string, len(c.st.sessions))
			for id, name := range c.st.sessions {
				st.sessions[id] = name
			}
			cc.st = &st
			cc.durable = append([]effect(nil), c.durable...)
			cc.after = append([]effect(nil), c.after...)
			cc.drops = append([]uint64(nil), c.drops...)
		}
		n.coords[i] = &cc
	}
	for i, x := range w.workers {
		xx := *x
		xx.inbox = append([]feed.Frame(nil), x.inbox...)
		xx.todo = append([]int(nil), x.todo...)
		n.workers[i] = &xx
	}
	return &n
}

type xKey []byte

func (k *xKey) u(vs ...uint64) {
	for _, v := range vs {
		*k = binary.AppendUvarint(*k, v)
	}
}

func (k *xKey) ints(vs []int) {
	k.u(uint64(len(vs)))
	for _, v := range vs {
		k.u(uint64(v))
	}
}

func (k *xKey) frame(f feed.Frame) {
	switch f := f.(type) {
	case *feed.Lease:
		if f == nil {
			k.u(0)
			return
		}
		k.u(1, f.ID, f.Gen, uint64(f.Day), uint64(f.Block), uint64(len(f.Params)))
	case *feed.Grant:
		k.u(2, f.Session, f.Epoch, f.UnitsDone)
	case *feed.ResultAck:
		k.u(3, f.Unit)
	case *feed.End:
		k.u(4)
	default:
		k.u(5)
	}
}

func btou(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// key digests everything that can influence later moves: a dead
// incarnation never acts again, nor does a released one once its final
// save is done (until then it is keyed in full), a disconnected worker's epoch
// only reaches a log line, and a redelivered result is re-stamped, so
// none of those enter. Workers are interchangeable, so their encodings
// are sorted.
func (e *xExplorer) key(w *xWorld) uint64 {
	b := e.buf[0][:0]
	b.u(uint64(w.journal), uint64(w.expired), uint64(w.aborted), uint64(w.joins))
	if m := w.manifest; m != nil {
		b.u(m.Epoch, m.NextSession, m.NextLease, uint64(len(m.Leases)))
		for _, l := range m.Leases {
			b.u(uint64(l.Gid), l.Lease, l.Gen, l.Session)
		}
		b.ints(m.Pending)
	}
	for _, c := range w.coords {
		if !c.alive || c.released && len(c.durable) == 0 {
			b.u(2 + btou(c.alive))
			continue
		}
		st := c.st
		b.u(uint64(len(c.atAbort)))
		for _, l := range c.atAbort {
			b.u(uint64(l.Gid), l.Lease, l.Gen, l.Session)
		}
		b.u(btou(c.checked), btou(c.sawHigher), st.epoch, st.nextSession, st.nextLease, uint64(st.doneUnits), uint64(st.accepted),
			btou(st.finished), btou(st.fatal != nil), uint64(len(st.sessions)))
		b.ints(st.pending)
		b.u(uint64(len(st.waiters)))
		b.u(st.waiters...)
		b.u(uint64(len(c.drops)))
		b.u(c.drops...)
		b.u(st.live()...)
		for _, g := range st.groups {
			missing := uint64(0)
			for p := range g.missing {
				missing |= 1 << p
			}
			b.u(g.gen, g.lease, g.session, missing)
		}
		for _, q := range [][]effect{c.durable, c.after} {
			b.u(uint64(len(q)))
			for _, f := range q {
				b.u(uint64(f.kind), f.session, uint64(f.entry.U))
				b.frame(f.frame)
			}
		}
	}
	ws := e.buf[1:]
	for i, x := range w.workers {
		k := ws[i][:0]
		epoch := uint64(0)
		if x.conn >= 0 {
			epoch = x.epoch
		}
		k.u(uint64(int64(x.conn)), x.link, btou(x.granted), btou(x.want), btou(x.done), x.sessionID, epoch,
			x.held[0], x.held[1], x.held[2], uint64(x.unacked))
		k.frame(x.lease)
		k.ints(x.todo)
		k.u(uint64(len(x.inbox)))
		for _, f := range x.inbox {
			k.frame(f)
		}
		ws[i] = k
	}
	e.buf[0] = b
	h := fnv.New64a()
	h.Write(b)
	if bytes.Compare(ws[0], ws[1]) > 0 {
		h.Write(ws[1])
		h.Write(ws[0])
	} else {
		h.Write(ws[0])
		h.Write(ws[1])
	}
	return h.Sum64()
}

// step feeds ev to incarnation k and schedules its effects.
func (w *xWorld) step(k int, ev event) []effect {
	c := w.coords[k]
	effs := c.st.step(ev)
	c.durable, c.after = nil, nil
	for _, e := range effs {
		switch {
		case e.kind == effTouch: // the model disk keeps no modification time
		case e.kind < effTouch:
			c.durable = append(c.durable, e)
		default:
			c.after = append(c.after, e)
		}
	}
	return effs
}

// settle delivers k's sends once its durable effects are done.
func (w *xWorld) settle(k int) error {
	c := w.coords[k]
	if len(c.durable) > 0 {
		return nil
	}
	after := c.after
	c.after = nil
	for _, e := range after {
		x := w.linked(k, e.session)
		switch e.kind {
		case effSend, effEnd:
			f := e.frame
			if e.kind == effEnd {
				f = &feed.End{}
			}
			switch f := f.(type) {
			case *feed.Grant:
				w.issue(k, f.Session, func(c *xCoord) *uint64 { return &c.sessions })
			case *feed.Lease:
				w.issue(k, f.ID, func(c *xCoord) *uint64 { return &c.leases })
			case *feed.Heartbeat:
				continue
			}
			if x != nil {
				x.inbox = append(x.inbox, f)
			}
		case effClose:
			if x != nil {
				w.disconnect(x)
			}
		case effFinish:
			if all := uint8(1)<<w.plan.NumUnits() - 1; c.st.fatal == nil && !c.st.paused && w.journal != all {
				return fmt.Errorf("incarnation %d finished the run with journal %03b: a unit was lost", k, w.journal)
			}
		}
	}
	return nil
}

// issue records that incarnation k issued id, noting a reissue of an
// id an earlier incarnation issued.
func (w *xWorld) issue(k int, id uint64, set func(*xCoord) *uint64) {
	if id >= 64 {
		return
	}
	for j, c := range w.coords {
		if j != k && *set(c)&(1<<id) != 0 {
			w.reissued = true
		}
	}
	*set(w.coords[k]) |= 1 << id
}

func (w *xWorld) linked(k int, s uint64) *xWorker {
	for _, x := range w.workers {
		if x.conn == k && x.link == s {
			return x
		}
	}
	return nil
}

// disconnect ends x's connection: the incarnation's handler will step
// evDrop for it.
func (w *xWorld) disconnect(x *xWorker) {
	if c := w.coords[x.conn]; c.alive {
		c.drops = append(c.drops, x.link)
	}
	x.conn, x.link, x.inbox, x.granted, x.want, x.lease, x.todo = -1, 0, nil, false, false, nil, nil
}

// runDurable carries out the head durable effect of incarnation k.
func (w *xWorld) runDurable(k int) error {
	c := w.coords[k]
	e := c.durable[0]
	c.durable = c.durable[1:]
	switch e.kind {
	case effFence:
		seen := w.diskEpoch()
		c.checked, c.sawHigher = true, seen > c.st.epoch
		if c.sawHigher && !(w.b.mutant && len(c.durable) > 0 && c.durable[0].kind == effAppend) {
			w.step(k, event{kind: evFenced, seen: seen})
		}
	case effAppend, effSave:
		if !c.checked {
			return fmt.Errorf("incarnation %d wrote without a fence check", k)
		}
		c.checked = false
		if c.sawHigher {
			return fmt.Errorf("incarnation %d (epoch %d) wrote after its fence check saw epoch %d", k, c.st.epoch, w.diskEpoch())
		}
		if e.kind == effSave {
			w.manifest = c.st.manifest()
			if c.released {
				return w.checkAbortKept(k)
			}
			break
		}
		if u := e.entry.U; len(e.entry.Rets) != 1 || len(e.entry.Rets[0]) != 1 || e.entry.Rets[0][0] != float64(u) {
			return fmt.Errorf("journal record for unit %d holds rows %v computed for another unit", u, e.entry.Rets)
		}
		w.journal |= 1 << e.entry.U
	}
	return w.settle(k)
}

// checkTables asserts no live, unfinished incarnation has lost a unit:
// each group with a missing unit is pending exactly once or leased.
func (w *xWorld) checkTables() error {
	for k, c := range w.coords {
		st := c.st
		if !c.alive || st.finished || len(c.durable) > 0 {
			continue
		}
		var count [3]int
		for _, gid := range st.pending {
			count[gid]++
		}
		for gid, g := range st.groups {
			held := count[gid] + int(btou(g.lease != 0))
			if (len(g.missing) == 0 && held != 0) || (len(g.missing) > 0 && held != 1) {
				return fmt.Errorf("incarnation %d: group %d with %d missing unit(s) is pending %d time(s) under lease %d",
					k, gid, len(g.missing), count[gid], g.lease)
			}
		}
		if len(st.waiters) > 0 && len(st.pending) > 0 {
			return fmt.Errorf("incarnation %d parks %v while %v is pending", k, st.waiters, st.pending)
		}
	}
	return nil
}

// checkAbortKept asserts that the manifest incarnation k's release
// saved holds every lease that was live when k aborted.
func (w *xWorld) checkAbortKept(k int) error {
	for _, l := range w.coords[k].atAbort {
		if !slices.Contains(w.manifest.Leases, l) {
			return fmt.Errorf("incarnation %d aborted holding lease %+v, but its release saved leases %+v", k, l, w.manifest.Leases)
		}
	}
	return w.settle(k)
}

// leaseLive reports whether incarnation k holds a lease an expiry
// would reclaim.
func (w *xWorld) leaseLive(k int) bool {
	for _, g := range w.coords[k].st.groups {
		if g.lease != 0 && len(g.missing) > 0 {
			return true
		}
	}
	return false
}

// moves lists every enabled move; each runs on a fresh clone.
func (w *xWorld) moves() []func(*xWorld) error {
	var mv []func(*xWorld) error
	alive, busy := 0, false
	for k, c := range w.coords {
		if !c.alive {
			continue
		}
		alive++
		mv = append(mv, func(w *xWorld) error { // crash
			w.coords[k].alive = false
			for _, x := range w.workers {
				if x.conn == k {
					w.disconnect(x)
				}
			}
			return nil
		})
		if len(c.durable) > 0 {
			busy = true
			mv = append(mv, func(w *xWorld) error { return w.runDurable(k) })
			continue
		}
		for d := range c.drops { // handlers unwind in any order
			mv = append(mv, func(w *xWorld) error {
				c := w.coords[k]
				s := c.drops[d]
				c.drops = append(c.drops[:d:d], c.drops[d+1:]...)
				w.step(k, event{kind: evDrop, session: s, now: w.now()})
				return w.settle(k)
			})
		}
		switch {
		case !c.st.finished:
			// A tick only matters when the file lost this incarnation's
			// claim; the touch and heartbeats are invisible here.
			if w.diskEpoch() != c.st.epoch {
				mv = append(mv, func(w *xWorld) error {
					w.step(k, event{kind: evTick, seen: w.diskEpoch(), now: w.now()})
					return w.settle(k)
				})
			}
			if w.expired < w.b.expiries && w.leaseLive(k) {
				mv = append(mv, func(w *xWorld) error {
					w.expired++
					w.step(k, event{kind: evTick, seen: w.diskEpoch(), now: w.now().Add(2 * xTTL)})
					return w.settle(k)
				})
			}
			if w.aborted < w.b.aborts && len(c.st.sessions) > 0 {
				mv = append(mv, func(w *xWorld) error {
					w.aborted++
					c := w.coords[k]
					c.atAbort = c.st.manifest().Leases
					w.step(k, event{kind: evAbort, err: errXAbort})
					return w.settle(k)
				})
			}
		case c.st.finished && !c.released && len(c.st.sessions) == 0 && len(c.drops) == 0:
			mv = append(mv, func(w *xWorld) error {
				w.coords[k].released = true
				w.step(k, event{kind: evRelease})
				return w.settle(k)
			})
		}
	}
	if len(w.coords) < w.b.incarnations && alive < w.b.alive {
		mv = append(mv, func(w *xWorld) error { return w.start() })
	}
	if busy {
		return mv
	}
	for i, x := range w.workers {
		switch {
		case x.done:
		case x.conn < 0:
			for k, c := range w.coords {
				if w.joins < w.b.joins && c.alive && !c.st.finished {
					mv = append(mv, func(w *xWorld) error { return w.connect(i, k) })
				}
			}
		case len(x.inbox) == 0:
			mv = append(mv, func(w *xWorld) error { w.disconnect(w.workers[i]); return nil })
			if x.held != [3]uint64{} || x.unacked != 0 {
				// SIGKILL: the resume state dies too. Without held
				// leases or buffered results a rejoin is a join.
				mv = append(mv, func(w *xWorld) error {
					x := w.workers[i]
					w.disconnect(x)
					x.sessionID, x.epoch, x.held, x.unacked = 0, 0, [3]uint64{}, 0
					return nil
				})
			}
		}
		if x.conn < 0 {
			continue
		}
		k := x.conn
		if x.want {
			mv = append(mv, func(w *xWorld) error {
				x := w.workers[i]
				x.want = false
				w.step(k, event{kind: evSteal, session: x.link, now: w.now()})
				return w.settle(k)
			})
		}
		if x.lease != nil {
			mv = append(mv, func(w *xWorld) error { return w.deliver(i) })
		}
	}
	return mv
}

// start brings up the next incarnation from the disk as it stands.
func (w *xWorld) start() error {
	done := map[int]int{}
	for u := 0; u < w.plan.NumUnits(); u++ {
		if w.journal&(1<<u) != 0 {
			done[u] = 1
		}
	}
	var prior *coordManifest
	if w.manifest != nil {
		m := *w.manifest
		prior = &m
	}
	w.coords = append(w.coords, &xCoord{st: &coordState{plan: w.plan, ttl: xTTL, sessions: map[uint64]string{}}, alive: true})
	k := len(w.coords) - 1
	w.step(k, event{kind: evRestore, prior: prior, done: done, now: w.now()})
	return w.settle(k)
}

// connect runs worker i's Join — a rejoin once it has held a session —
// on incarnation k.
func (w *xWorld) connect(i, k int) error {
	x := w.workers[i]
	w.joins++
	j := &feed.Join{Name: fmt.Sprint("w", i), PriorSession: x.sessionID, PriorEpoch: x.epoch}
	for _, id := range x.held {
		if id != 0 {
			j.HeldLeases = append(j.HeldLeases, id)
		}
	}
	effs := w.step(k, event{kind: evJoin, join: j, now: w.now()})
	x.conn, x.link = k, effs[0].session
	return w.settle(k)
}

// readAll lets every worker read what it would read next, the way
// RunWorker does: only while it waits for a lease.
func (w *xWorld) readAll() {
	for _, x := range w.workers {
		for x.conn >= 0 && len(x.inbox) > 0 && x.lease == nil && !x.want {
			f := x.inbox[0]
			x.inbox = x.inbox[1:]
			switch f := f.(type) {
			case *feed.Grant:
				x.sessionID, x.epoch, x.held, x.granted, x.want = f.Session, f.Epoch, [3]uint64{}, true, true
			case *feed.Lease:
				gid := w.plan.GroupID(int(f.Day), int(f.Block))
				x.held[gid] = f.ID
				var asked uint8
				for _, p := range f.Params {
					u := w.plan.UnitID(sweep.Unit{Day: int(f.Day), Block: int(f.Block), Param: int(p)})
					asked |= 1 << u
					x.todo = append(x.todo, u)
				}
				for u := 0; u < w.plan.NumUnits(); u++ {
					if w.gid(u) == gid && asked&(1<<u) == 0 {
						x.unacked &^= 1 << u // journaled before the old coordinator died
					}
				}
				x.lease = f
			case *feed.ResultAck:
				u := int(f.Unit)
				if x.unacked&(1<<u) != 0 {
					x.unacked &^= 1 << u
					still := false
					for o := 0; o < w.plan.NumUnits(); o++ {
						still = still || (x.unacked&(1<<o) != 0 && w.gid(o) == w.gid(u))
					}
					if !still {
						x.held[w.gid(u)] = 0
					}
				}
			case *feed.End:
				x.done = true
				w.disconnect(x)
			}
		}
	}
}

// deliver sends worker i's next unit of its lease: a buffered result
// re-stamped under the lease, or a fresh one. The rows are the unit's
// pure value.
func (w *xWorld) deliver(i int) error {
	x := w.workers[i]
	u := x.todo[0]
	x.todo = x.todo[1:]
	r := &feed.Result{Lease: x.lease.ID, Gen: x.lease.Gen, Epoch: x.epoch, Unit: uint64(u), Rets: [][]float64{{float64(u)}}}
	if x.unacked&(1<<u) != 0 {
		r.Flags = feed.ResultRecovered
	}
	x.unacked |= 1 << u
	if len(x.todo) == 0 {
		x.lease, x.want = nil, true
	}
	k := x.conn
	w.step(k, event{kind: evResult, session: x.link, result: r, now: w.now()})
	return w.settle(k)
}

// explore runs a depth-first search over every interleaving from w.
func (e *xExplorer) explore(w *xWorld) {
	if e.err != nil {
		return
	}
	key := e.key(w)
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.states++
	if w.reissued {
		e.reissues++
	}
	for _, mv := range w.moves() {
		n := w.clone()
		err := mv(n)
		if err == nil {
			n.readAll()
			err = n.checkTables()
		}
		if err != nil {
			e.err = err
			return
		}
		e.explore(n)
	}
}

func runExplorer(t *testing.T, w *xWorld) *xExplorer {
	t.Helper()
	start := time.Now()
	// The search allocates a little per move and keeps almost none of
	// it: collect less often.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	e := &xExplorer{seen: map[uint64]bool{}}
	e.explore(w)
	t.Logf("explorer %+v: %d states in %v", *w.b, e.states, time.Since(start).Round(time.Millisecond))
	return e
}

// explorerBounds are the committed bounds, each searched exhaustively.
// Together they cover join, steal, result, drop, SIGKILL, expiry,
// crash, restart and takeover, in every order, over two incarnations,
// two workers and three units: as one group of three parameter sets
// (partial re-deals, buffered redelivery) and as three groups
// (concurrent leases). Under -short, and under -race, which only slows
// a one-goroutine search, each runs a smaller bound.
var explorerBounds = []struct {
	name        string
	full, short xBound
}{
	{"restart and takeover",
		xBound{groups: 1, incarnations: 2, alive: 2, joins: 3},
		xBound{groups: 1, incarnations: 2, alive: 2, joins: 2}},
	{"expiry with restart and takeover",
		xBound{groups: 1, incarnations: 2, alive: 2, joins: 2, expiries: 1},
		xBound{groups: 1, incarnations: 2, alive: 1, joins: 2, expiries: 1}},
	{"three groups with restart and takeover",
		xBound{groups: 3, incarnations: 2, alive: 2, joins: 2},
		xBound{groups: 3, incarnations: 2, alive: 1, joins: 2}},
	{"three groups with expiry",
		xBound{groups: 3, incarnations: 1, alive: 1, joins: 2, expiries: 1},
		xBound{groups: 3, incarnations: 1, alive: 1, joins: 2, expiries: 1}},
	{"abort with restart and rejoin",
		xBound{groups: 1, incarnations: 2, alive: 1, joins: 3, aborts: 1},
		xBound{groups: 1, incarnations: 2, alive: 1, joins: 3, aborts: 1}},
	{"three groups with abort, restart and rejoin",
		xBound{groups: 3, incarnations: 2, alive: 1, joins: 3, aborts: 1},
		xBound{groups: 3, incarnations: 2, alive: 1, joins: 2, aborts: 1}},
}

func reducedBound() bool { return testing.Short() || raceBuild }

func TestExplorerCoordinatorCore(t *testing.T) {
	for _, c := range explorerBounds {
		t.Run(c.name, func(t *testing.T) {
			b := c.full
			if reducedBound() {
				b = c.short
			}
			if e := runExplorer(t, newXWorld(&b)); e.err != nil {
				t.Fatal(e.err)
			}
		})
	}
}

// TestExplorerFindsUnfencedAppend is the explorer's mutation check:
// with the fence re-read before journal appends removed, an incumbent
// journals after its successor's claim, and the explorer must say so.
func TestExplorerFindsUnfencedAppend(t *testing.T) {
	b := explorerBounds[0].short
	b.mutant = true
	e := runExplorer(t, newXWorld(&b))
	if e.err == nil || !strings.Contains(e.err.Error(), "wrote after its fence check") {
		t.Fatalf("explorer with the pre-append fence re-read removed reported %v, want a fencing violation", e.err)
	}
}

// TestExplorerReissuedIDsHarmless decides DESIGN §11's open case. An
// incumbent checks the fence for a lease grant; a successor claims
// epoch 2, grants sessions 1 and 2 and leases 1 and 2; the incumbent's
// save lands and replaces the claim with epoch 1; the successor dies
// before its next tick. From there the explorer runs every
// continuation — the incumbent serving on, unfenced, a restart that
// claims epoch 2 again from the incumbent's counters and reissues the
// dead successor's ids, workers rejoining either with ids the other
// incarnations also issued — and must find no wrong, lost or unfenced
// unit while reaching states where a restart reissued an id.
func TestExplorerReissuedIDsHarmless(t *testing.T) {
	b := xBound{groups: 1, incarnations: 3, alive: 2, joins: 5}
	if reducedBound() {
		b.joins = 4
	}
	w := newXWorld(&b)
	run := func(k int) {
		t.Helper()
		for len(w.coords[k].durable) > 0 {
			if err := w.runDurable(k); err != nil {
				t.Fatal(err)
			}
		}
		w.readAll()
	}
	steal := func(i int) {
		x := w.workers[i]
		x.want = false
		w.step(x.conn, event{kind: evSteal, session: x.link, now: w.now()})
	}
	w.start() // the incumbent claims epoch 1
	run(0)
	w.connect(0, 0)
	run(0)
	steal(0)        // the incumbent grants the group ...
	w.runDurable(0) // ... and its fence check passes
	w.start()       // the successor takes over
	run(1)          // its claim lands: epoch 2
	w.connect(1, 1) // session 1
	run(1)
	steal(1) // lease 1
	run(1)
	w.disconnect(w.workers[1])
	w.connect(1, 1) // session 2: re-confirms lease 1 as lease 2
	run(1)
	w.runDurable(0) // the incumbent's save replaces the claim
	run(0)
	w.coords[1].alive = false // the successor dies before its next tick
	for _, x := range w.workers {
		if x.conn == 1 {
			w.disconnect(x)
		}
	}
	if w.diskEpoch() != 1 || w.coords[1].sessions != 0b110 || w.coords[1].leases != 0b110 {
		t.Fatalf("prefix left epoch %d on disk and the successor issuing sessions %b, leases %b; want 1, 110, 110",
			w.diskEpoch(), w.coords[1].sessions, w.coords[1].leases)
	}
	w.reissued = false
	e := runExplorer(t, w)
	if e.err != nil {
		t.Fatal(e.err)
	}
	if e.reissues == 0 {
		t.Fatal("no explored state reissued an id: the open case was not reached")
	}
	t.Logf("%d states reissued an earlier incarnation's session or lease id", e.reissues)
}
