package broker

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"marketminer/internal/explore"
)

// The explorer drives brokerState.step — the production decision core —
// through every interleaving of a small broker: its start, and a
// lease-loop tick that comes first; processor generations that restore
// from their log, beat, gather a matrix, publish and finish; kills,
// lease-expiry ticks and the ticks that relaunch killed processors;
// matrices offered and sealed; the partition logs' release floors;
// members of one group, and of a second group that may join late, who
// join, drop, rejoin, are swept, ack (once past the log end) and are
// served by a model of the wire handler and the subscriber. It mirrors
// the shell: a processor's beat and its read of the matrix log are one
// move, as are its publish fence and its append, as they share one
// critical section under Broker.mu; the handler reads the assignment
// and the logs at its own pace, and reads a cursor below the floor from
// the first retained record (partitionLog.read). A partition holds one
// signal per interval, so a record is an offset.
//
// Asserted:
//   - two generations never interleave writes into one partition log:
//     every append extends the log by the interval after its newest,
//     from a generation no older than the newest's;
//   - commits are monotonic and never pass the log end;
//   - the floor never moves back, never passes the commit of a group
//     that exists when it moves, and keeps W records below the log end,
//     which a relaunched processor rebuilds C̄ from;
//   - every member reaches End: in a state with no move left, every
//     connected member has ended and every log is sealed;
//   - the delivered stream equals the log, with dense offsets and no
//     duplicates: a member is handed each offset at most once, never a
//     released one, and the record it is handed is the log's; once
//     every member of a group has ended, the group was handed every
//     offset of every log, save those an ack past the log end claimed
//     and, for a group created after the floor moved, those below the
//     first record its handler read.

const (
	xbParts   = 2
	xbTTL     = time.Second
	xbGrace   = xbTTL / 4
	xbMembers = 3 // two of group g, then the late group's one
	xbLate    = xbMembers - 1
)

// xbGroups are the consumer groups: g's members join in turn, the late
// group's at any time.
var xbGroups = [2]string{"g", "late"}

type xbBound struct {
	parts      int  // partitions, each one pair
	intervals  int  // ready matrices in the day
	members    int  // members of group g, who join in turn
	late       bool // a member of a second group joins too
	w          int  // records the floor keeps below the log end
	joins      int  // joins, rejoins included
	kills      int  // KillPartition calls
	expiries   int  // ticks that find every live lease overdue
	sweeps     int  // ticks past every dropped member's grace
	overshoots int  // acks past the log end
}

// xbProc is one processor generation, its cursor restored from its
// log at launch: until the new generation appends, no other can.
type xbProc struct {
	part, gen, cursor int
	gathered          bool // read matrix cursor; its publish is due
	drained           bool // read the seal; its finish is due
}

// xbMember is one group member: the handler of its current session and
// the subscriber, whose watermark survives its sessions.
type xbMember struct {
	name    string
	group   int // index into xbGroups
	conn    bool
	ended   bool
	session uint64
	epoch   uint64          // of the handler's last Assign
	cursor  [xbParts]uint64 // next offset to send; 0 when not assigned
	resume  [xbParts]uint64
	sealed  [xbParts]bool   // sealed Delta sent
	next    [xbParts]uint64 // subscriber watermark
	handed  [xbParts]uint64 // bit o−1: offset o handed to the application
}

type xbWorld struct {
	b         *xbBound
	st        brokerState
	clock     time.Time
	logs      [xbParts][]int // record i: the generation that appended it
	logSealed [xbParts]bool
	released  [xbParts]uint64 // offsets (records) at or below were released
	avail     int
	sealedIn  bool
	procs     []xbProc
	members   [xbMembers]xbMember
	handed    [2][xbParts]uint64 // per group, offsets handed to any member
	forfeit   [2][xbParts]uint64 // per group, offsets at or below were claimed by an ack past the log end
	skipped   [2][xbParts]uint64 // per group, offsets at or below were released before its commit reached them
	commits   [2][xbParts]uint64 // per group, the last commits seen
	err       error              // a violation seen while stepping

	joins, kills, expiries, sweeps, overshoots int
}

func newXBWorld(b *xbBound) *xbWorld {
	w := &xbWorld{
		b:     b,
		clock: time.Unix(1e9, 0),
		st: brokerState{ttl: xbTTL, grace: xbGrace, w: uint64(b.w),
			leases: make([]lease, b.parts), logs: make([]logTail, b.parts), groups: map[string]*group{}},
	}
	for i := range w.members {
		w.members[i].name = fmt.Sprint("m", i)
	}
	w.members[xbLate].group = 1
	return w
}

// active lists the members the bound lets join.
func (w *xbWorld) active() []int {
	ids := make([]int, 0, xbMembers)
	for i := 0; i < w.b.members; i++ {
		ids = append(ids, i)
	}
	if w.b.late {
		ids = append(ids, xbLate)
	}
	return ids
}

// clone deep-copies the world, the core included.
func (w *xbWorld) clone() *xbWorld {
	n := *w
	n.st.leases = slices.Clone(w.st.leases)
	n.st.logs = slices.Clone(w.st.logs)
	n.st.groups = make(map[string]*group, len(w.st.groups))
	for name, g := range w.st.groups {
		gg := *g
		gg.commits = slices.Clone(g.commits)
		gg.members = make(map[string]*member, len(g.members))
		for id, m := range g.members {
			mm := *m
			gg.members[id] = &mm
		}
		n.st.groups[name] = &gg
	}
	for p := range w.logs {
		n.logs[p] = slices.Clip(w.logs[p])
	}
	n.procs = slices.Clone(w.procs)
	return &n
}

// step feeds ev to the core, launches the generations it names and
// releases the records it names, checking the floor as it moves.
func (w *xbWorld) step(ev event) fate {
	f, effs := w.st.step(ev)
	for _, e := range effs {
		switch e.kind {
		case effLaunch:
			w.procs = append(w.procs, xbProc{part: e.part, gen: e.gen, cursor: len(w.logs[e.part])})
			slices.SortFunc(w.procs, func(a, b xbProc) int { return (a.part-b.part)*1024 + a.gen - b.gen })
		case effRelease:
			floor := uint64(e.n)
			if floor <= w.released[e.part] && w.err == nil {
				w.err = fmt.Errorf("partition %d floor moved from %d back to %d", e.part, w.released[e.part], floor)
			}
			for gi, name := range xbGroups {
				if g := w.st.groups[name]; g != nil && floor > g.commits[e.part] && w.err == nil {
					w.err = fmt.Errorf("partition %d floor %d passed group %d's commit %d", e.part, floor, gi, g.commits[e.part])
				}
			}
			w.released[e.part] = max(w.released[e.part], floor)
		}
	}
	return f
}

func (w *xbWorld) group(gi int) *group { return w.st.groups[xbGroups[gi]] }

// key digests everything that can influence later moves into b. Every
// live lease is renewed at the clock (a tick that finds them overdue
// relaunches them all at its own time), so renewal times are not
// keyed; of a member's last-seen time, only whether its grace ran out.
func (w *xbWorld) key(b []byte) []byte {
	u := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	u(btou(w.st.started), uint64(w.avail), uint64(w.joins), uint64(w.kills), uint64(w.expiries), uint64(w.sweeps), uint64(w.overshoots))
	for p := 0; p < w.b.parts; p++ {
		l := w.st.leases[p]
		u(uint64(l.gen), btou(l.killed), btou(l.done), btou(w.logSealed[p]), uint64(len(w.logs[p])), w.st.logs[p].floor, w.released[p])
		for gi := range xbGroups {
			u(w.handed[gi][p], w.forfeit[gi][p], w.skipped[gi][p])
		}
		for _, g := range w.logs[p] {
			u(uint64(g))
		}
	}
	for _, p := range w.procs { // kept in (part, gen) order
		u(uint64(p.part), uint64(p.gen), uint64(p.cursor), btou(p.gathered), btou(p.drained))
	}
	for gi := range xbGroups {
		if g := w.group(gi); g != nil {
			u(g.epoch)
			u(g.commits...)
		} else {
			u(0)
		}
	}
	for _, i := range w.active() {
		m := w.members[i]
		u(btou(m.conn), btou(m.ended), m.session, m.epoch)
		for p := 0; p < w.b.parts; p++ {
			u(m.cursor[p], m.resume[p], btou(m.sealed[p]), m.next[p], m.handed[p])
		}
		if gm := w.group(m.group).memberOf(m.name); gm != nil {
			u(gm.session, btou(gm.alive), btou(w.clock.Sub(gm.lastSeen) > xbGrace))
		} else {
			u(0)
		}
	}
	return b
}

func (g *group) memberOf(id string) *member {
	if g == nil {
		return nil
	}
	return g.members[id]
}

func btou(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type xbMove = explore.Move[*xbWorld]

// moves lists every enabled move.
func (w *xbWorld) moves() []xbMove {
	if !w.st.started {
		return []xbMove{
			{Name: "the lease loop ticks before the broker starts", Do: func(w *xbWorld) error {
				w.step(event{kind: evTick, now: w.clock})
				return nil
			}},
			{Name: "the broker starts", Do: func(w *xbWorld) error {
				w.step(event{kind: evStart, now: w.clock})
				return nil
			}},
		}
	}
	var mv []xbMove
	if w.avail < w.b.intervals {
		mv = append(mv, xbMove{Name: "a matrix is ready (the last with the seal)", Do: func(w *xbWorld) error {
			w.avail++
			w.sealedIn = w.avail == w.b.intervals
			return nil
		}})
	}
	killed, live := false, false
	for p := 0; p < w.b.parts; p++ {
		l := w.st.leases[p]
		killed = killed || l.killed && !l.done
		live = live || !l.done
		if w.kills < w.b.kills && !l.done && !l.killed {
			mv = append(mv, xbMove{Name: "partition %[1]d is killed", Args: [2]int{p}, Do: func(w *xbWorld) error {
				w.kills++
				w.step(event{kind: evKill, part: p})
				return nil
			}})
		}
	}
	if killed {
		mv = append(mv, xbMove{Name: "the lease loop ticks", Do: func(w *xbWorld) error {
			w.step(event{kind: evTick, now: w.clock})
			return nil
		}})
	}
	if live && w.expiries < w.b.expiries {
		mv = append(mv, xbMove{Name: "the lease loop ticks a TTL late: every live lease expires", Do: func(w *xbWorld) error {
			w.expiries++
			w.clock = w.clock.Add(2 * xbTTL)
			w.step(event{kind: evTick, now: w.clock})
			return nil
		}})
	}
	if w.sweeps < w.b.sweeps && w.dropped() {
		mv = append(mv, xbMove{Name: "the lease loop ticks past the grace: dropped members are swept", Do: func(w *xbWorld) error {
			w.sweeps++
			w.step(event{kind: evTick, now: w.clock.Add(xbGrace + time.Nanosecond)})
			return nil
		}})
	}
	for i, pr := range w.procs {
		switch f := w.st.fate(pr.part, pr.gen); {
		case pr.gathered:
			mv = append(mv, xbMove{Name: "partition %[1]d gen %[2]d publishes", Args: [2]int{pr.part, pr.gen}, Do: func(w *xbWorld) error { return w.publish(i) }})
		case pr.drained:
			mv = append(mv, xbMove{Name: "partition %[1]d gen %[2]d finishes", Args: [2]int{pr.part, pr.gen}, Do: func(w *xbWorld) error { return w.finish(i) }})
		case f == holds && (pr.cursor < w.avail || w.sealedIn):
			mv = append(mv, xbMove{Name: "partition %[1]d gen %[2]d beats", Args: [2]int{pr.part, pr.gen}, Do: func(w *xbWorld) error { return w.beat(i) }})
		}
	}
	for _, i := range w.active() {
		m := w.members[i]
		if m.ended || i > 0 && i != xbLate && w.members[i-1].session == 0 {
			continue // g's members join in turn
		}
		if !m.conn {
			if w.joins < w.b.joins {
				mv = append(mv, xbMove{Name: "member %[1]d joins", Args: [2]int{i}, Do: func(w *xbWorld) error { return w.join(i) }})
			}
			continue
		}
		g := w.group(m.group)
		mv = append(mv, xbMove{Name: "member %[1]d's connection drops", Args: [2]int{i}, Do: func(w *xbWorld) error {
			m := &w.members[i]
			m.conn = false
			w.step(event{kind: evLeave, group: xbGroups[m.group], member: m.name, session: m.session, now: w.clock})
			return nil
		}})
		if m.epoch != g.epoch {
			mv = append(mv, xbMove{Name: "member %[1]d's handler reads the assignment", Args: [2]int{i}, Do: func(w *xbWorld) error { return w.assign(i) }})
		} else if w.endDue(i) {
			mv = append(mv, xbMove{Name: "member %[1]d gets End", Args: [2]int{i}, Do: func(w *xbWorld) error {
				m := &w.members[i]
				m.ended, m.conn = true, false
				w.step(event{kind: evLeave, group: xbGroups[m.group], member: m.name, session: m.session, now: w.clock})
				return nil
			}})
		}
		for p := 0; p < w.b.parts; p++ {
			if c := m.cursor[p]; c != 0 && !m.sealed[p] && (c <= uint64(len(w.logs[p])) || w.logSealed[p]) {
				mv = append(mv, xbMove{Name: "member %[1]d's handler serves partition %[2]d", Args: [2]int{i, p}, Do: func(w *xbWorld) error { return w.serve(i, p) }})
			}
			if m.next[p] > 1 && m.next[p]-1 > g.commits[p] {
				mv = append(mv, xbMove{Name: "member %[1]d acks partition %[2]d", Args: [2]int{i, p}, Do: func(w *xbWorld) error {
					m := &w.members[i]
					w.step(event{kind: evAck, group: xbGroups[m.group], part: p, offset: m.next[p] - 1, end: uint64(len(w.logs[p]))})
					return nil
				}})
			}
			if w.overshoots < w.b.overshoots {
				mv = append(mv, xbMove{Name: "member %[1]d acks partition %[2]d past its log end", Args: [2]int{i, p}, Do: func(w *xbWorld) error {
					w.overshoots++
					m := &w.members[i]
					end := uint64(len(w.logs[p]))
					w.forfeit[m.group][p] = max(w.forfeit[m.group][p], end)
					w.step(event{kind: evAck, group: xbGroups[m.group], part: p, offset: end + 1, end: end})
					return nil
				}})
			}
		}
	}
	return mv
}

// beat is one processor's next(): it beats and, while its generation
// holds the lease, reads its next matrix or the seal.
func (w *xbWorld) beat(i int) error {
	pr := &w.procs[i]
	if w.step(event{kind: evBeat, part: pr.part, gen: pr.gen, now: w.clock}) != holds {
		w.procs = slices.Delete(w.procs, i, i+1) // it exits or falls silent
		return nil
	}
	switch {
	case pr.cursor < w.avail:
		pr.gathered = true
	case w.sealedIn:
		pr.drained = true
	}
	return nil
}

// publish is the fenced append of the interval a processor gathered.
func (w *xbWorld) publish(i int) error {
	pr := &w.procs[i]
	if w.step(event{kind: evPublish, part: pr.part, gen: pr.gen, n: 1}) != holds {
		w.procs = slices.Delete(w.procs, i, i+1)
		return nil
	}
	log := w.logs[pr.part]
	if n := len(log); pr.cursor != n || n > 0 && log[n-1] > pr.gen {
		return fmt.Errorf("partition %d gen %d appended interval %d to a log of %d records, the newest by gen %d: two generations interleave writes",
			pr.part, pr.gen, pr.cursor, n, log[max(n-1, 0)])
	}
	w.logs[pr.part] = append(log, pr.gen)
	pr.cursor++
	pr.gathered = false
	return nil
}

// finish is the fenced seal of a drained processor's log.
func (w *xbWorld) finish(i int) error {
	pr := w.procs[i]
	w.procs = slices.Delete(w.procs, i, i+1)
	if w.step(event{kind: evFinish, part: pr.part, gen: pr.gen}) == holds {
		w.logSealed[pr.part] = true
	}
	return nil
}

// join opens a session: the GroupSub carries the subscriber's
// watermarks, the handler starts with no assignment.
func (w *xbWorld) join(i int) error {
	w.joins++
	m := &w.members[i]
	w.step(event{kind: evJoin, group: xbGroups[m.group], member: m.name, now: w.clock})
	m.conn, m.session, m.epoch = true, w.group(m.group).members[m.name].session, 0
	for p := range m.cursor {
		m.cursor[p], m.sealed[p], m.resume[p] = 0, false, max(m.next[p], 1)-1
	}
	return nil
}

// assign is the handler's epoch check: it opens a cursor for every
// newly assigned partition at max(resume, commit)+1 — the subscriber
// asks FromStart, so there is no snapshot — and folds the cursors of
// partitions reassigned away into resume.
func (w *xbWorld) assign(i int) error {
	m := &w.members[i]
	v := w.st.viewFor(w.group(m.group), m.name)
	m.epoch = v.epoch
	for p := 0; p < w.b.parts; p++ {
		k := slices.Index(v.partitions, p)
		switch {
		case k >= 0 && m.cursor[p] == 0:
			m.cursor[p] = max(m.resume[p], v.commits[k]) + 1
		case k < 0 && m.cursor[p] != 0:
			m.resume[p] = max(m.resume[p], m.cursor[p]-1)
			m.cursor[p], m.sealed[p] = 0, false
		}
	}
	return nil
}

// serve sends partition p's next record, or its seal, and the
// subscriber takes it. A cursor below the floor reads from the first
// retained record. Its group consumed what that skips unless its commit
// is below the floor too, which the floor allows only for a group
// created after it moved: that group skips the released records.
func (w *xbWorld) serve(i, p int) error {
	m := &w.members[i]
	if c := w.group(m.group).commits[p]; c < w.released[p] {
		w.skipped[m.group][p] = w.released[p]
	}
	o := max(m.cursor[p], w.released[p]+1)
	if o > uint64(len(w.logs[p])) {
		m.sealed[p] = true
		return nil
	}
	m.cursor[p] = o + 1
	return w.hand(i, p, o)
}

// hand is the subscriber taking offset o of partition p: it suppresses
// an offset below its watermark and hands the rest to the application.
func (w *xbWorld) hand(i, p int, o uint64) error {
	m := &w.members[i]
	if o <= w.released[p] {
		return fmt.Errorf("member %d was sent partition %d offset %d, released below %d", i, p, o, w.released[p]+1)
	}
	if o < max(m.next[p], 1) {
		return nil // redelivery, suppressed
	}
	m.next[p] = o + 1
	if bit := uint64(1) << (o - 1); m.handed[p]&bit != 0 {
		return fmt.Errorf("member %d was handed partition %d offset %d twice", i, p, o)
	} else {
		m.handed[p] |= bit
		w.handed[m.group][p] |= bit
	}
	return nil
}

// endDue reports whether member i's handler, holding the current
// assignment, sends End: every assigned partition sealed, or, holding
// none, every partition.
func (w *xbWorld) endDue(i int) bool {
	m := &w.members[i]
	assigned := false
	for p := 0; p < w.b.parts; p++ {
		if m.cursor[p] != 0 {
			assigned = true
			if !m.sealed[p] {
				return false
			}
		}
	}
	return assigned || w.allSealed()
}

func (w *xbWorld) allSealed() bool {
	for p := 0; p < w.b.parts; p++ {
		if !w.logSealed[p] {
			return false
		}
	}
	return true
}

// settle lets every processor turned away that has no append or seal
// pending learn it at its next beat, and checks the commit and floor
// properties. (One with an append pending still tries it: that is the
// fence the generation check must hold.)
func (w *xbWorld) settle() error {
	for i := 0; i < len(w.procs); i++ {
		if pr := w.procs[i]; !pr.gathered && w.st.fate(pr.part, pr.gen) != holds {
			w.beat(i)
			i--
		}
	}
	if w.err != nil {
		return w.err
	}
	for p := 0; p < w.b.parts; p++ {
		end := uint64(len(w.logs[p]))
		if r := w.released[p]; r > 0 && r+uint64(w.b.w) > end {
			return fmt.Errorf("partition %d released record %d, within W=%d of its end %d: a relaunch would rebuild C̄ from it", p, r, w.b.w, end)
		}
		for gi := range xbGroups {
			g := w.group(gi)
			if g == nil {
				continue
			}
			c := g.commits[p]
			if c > end {
				return fmt.Errorf("partition %d committed offset %d past its log end %d", p, c, end)
			}
			if c < w.commits[gi][p] {
				return fmt.Errorf("partition %d commit moved back from %d to %d", p, w.commits[gi][p], c)
			}
			w.commits[gi][p] = c
		}
	}
	return nil
}

// dropped reports whether a member is disconnected and not yet swept.
func (w *xbWorld) dropped() bool {
	for gi := range xbGroups {
		if g := w.group(gi); g != nil {
			for _, m := range g.members {
				if !m.alive {
					return true
				}
			}
		}
	}
	return false
}

// final asserts a world with no move left: every connected member
// ended, every log sealed, and, once every member of a group ended,
// every offset handed to the group.
func (w *xbWorld) final() error {
	if !w.allSealed() {
		return fmt.Errorf("no move left with a partition log unsealed: %v", w.logSealed[:w.b.parts])
	}
	all := [2]bool{true, true}
	for _, i := range w.active() {
		m := w.members[i]
		if m.conn && !m.ended {
			return fmt.Errorf("no move left and connected member %d never got End", i)
		}
		all[m.group] = all[m.group] && m.ended
	}
	for gi := range xbGroups {
		for p := 0; p < w.b.parts && all[gi] && w.group(gi) != nil; p++ {
			for o := max(w.forfeit[gi][p], w.skipped[gi][p]) + 1; o <= uint64(len(w.logs[p])); o++ {
				if w.handed[gi][p]&(1<<(o-1)) == 0 {
					return fmt.Errorf("every member of group %d ended, but none was handed partition %d offset %d", gi, p, o)
				}
			}
		}
	}
	return nil
}

func xbModel() explore.Model[*xbWorld] {
	var buf []byte
	return explore.Model[*xbWorld]{
		Key: func(w *xbWorld) uint64 {
			buf = w.key(buf[:0])
			h := fnv.New64a()
			h.Write(buf)
			return h.Sum64()
		},
		Clone: (*xbWorld).clone,
		Moves: (*xbWorld).moves,
		After: (*xbWorld).settle,
		Final: (*xbWorld).final,
	}
}

// brokerExplorerBounds are the committed bounds, each searched
// exhaustively; under -short and -race, which only slows a
// one-goroutine search, each runs its reduced form. Together they
// cover every event: kills, expiries and the ticks that relaunch,
// joins, drops, rejoins, sweeps, acks and an ack past the log end,
// over one or two partitions, one to three intervals and one or two
// members; and the floor: its release under a kill, a group that
// joins after it moved, and a handler it passes. The first six keep
// at most two intervals at W = 2, so their floors never move.
var brokerExplorerBounds = []struct {
	name          string
	full, reduced xbBound
}{
	{"kill and expiry",
		xbBound{parts: 2, intervals: 1, w: 2, members: 1, joins: 1, kills: 1, expiries: 1},
		xbBound{parts: 1, intervals: 1, w: 2, members: 1, joins: 1, kills: 1, expiries: 1}},
	{"a rejoin and an ack past the log end",
		xbBound{parts: 2, intervals: 1, w: 2, members: 1, joins: 2, kills: 1, overshoots: 1},
		xbBound{parts: 2, intervals: 1, w: 2, members: 1, joins: 1, kills: 1, overshoots: 1}},
	{"two intervals",
		xbBound{parts: 1, intervals: 2, w: 2, members: 1, joins: 2, kills: 1, expiries: 1},
		xbBound{parts: 1, intervals: 2, w: 2, members: 1, joins: 1, kills: 1, expiries: 1}},
	{"membership churn",
		xbBound{parts: 2, intervals: 1, w: 2, members: 2, joins: 3, sweeps: 1},
		xbBound{parts: 2, intervals: 1, w: 2, members: 2, joins: 2, sweeps: 1}},
	{"a kill under churn",
		xbBound{parts: 1, intervals: 1, w: 2, members: 2, joins: 3, kills: 1, sweeps: 1},
		xbBound{parts: 1, intervals: 1, w: 2, members: 2, joins: 2, kills: 1, sweeps: 1}},
	{"two members over two partitions and a kill",
		xbBound{parts: 2, intervals: 1, w: 2, members: 2, joins: 2, kills: 1},
		xbBound{parts: 1, intervals: 1, w: 2, members: 2, joins: 2, kills: 1}},
	{"the floor under a kill",
		xbBound{parts: 1, intervals: 3, w: 2, members: 1, joins: 1, kills: 1, expiries: 1},
		xbBound{parts: 1, intervals: 3, w: 2, members: 1, joins: 1, kills: 1, expiries: 1}},
	{"a late group",
		xbBound{parts: 1, intervals: 3, w: 2, members: 1, late: true, joins: 2},
		xbBound{parts: 1, intervals: 3, w: 2, members: 1, late: true, joins: 2}},
	{"a handover past the floor",
		xbBound{parts: 2, intervals: 3, w: 2, members: 2, joins: 2},
		xbBound{parts: 2, intervals: 2, w: 1, members: 2, joins: 2}},
}

func TestExplorerBrokerCore(t *testing.T) {
	for _, c := range brokerExplorerBounds {
		t.Run(c.name, func(t *testing.T) {
			b := c.full
			if explore.Reduced() {
				b = c.reduced
			}
			if r := explore.Search(t, fmt.Sprintf("%+v", b), xbModel(), newXBWorld(&b)); r.Err != nil {
				t.Fatal(r.Violation())
			}
		})
	}
}

// TestExplorerFindsBrokerMutants is the explorer's mutation check: each
// mutant of the core, built from a mutated copy of core.go, must make
// TestExplorerBrokerCore fail with its violation at the committed
// bound it names.
func TestExplorerFindsBrokerMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a mutated copy of the package")
	}
	for _, m := range []struct{ name, old, new, bound, want string }{
		{"publish without the generation check",
			"case evPublish:\n\t\tif f = st.fate(ev.part, ev.gen); f == holds {",
			"case evPublish:\n\t\t{",
			"kill_and_expiry",
			"two generations interleave writes"},
		{"commit without the clamp",
			"off := min(ev.offset, ev.end)",
			"off := ev.offset",
			"a_rejoin_and_an_ack_past_the_log_end",
			"past its log end"},
		{"expiry before the start",
			"\tif !st.started {\n\t\treturn\n\t}\n",
			"",
			"kill_and_expiry",
			"two generations interleave writes"},
		{"floor from the highest commit",
			"\tfor _, g := range st.groups {\n\t\tfloor = min(floor, g.commits[p])\n\t}\n",
			"\tvar high uint64\n\tfor _, g := range st.groups {\n\t\thigh = max(high, g.commits[p])\n\t}\n\tfloor = min(floor, high)\n",
			"a_late_group",
			"passed group"},
		{"floor without the end − W cap",
			"floor := l.end - min(l.end, st.w*l.np)",
			"floor := l.end",
			"the_floor_under_a_kill",
			"a relaunch would rebuild C̄ from it"},
	} {
		t.Run(m.name, func(t *testing.T) {
			out, passed := explore.Mutant(t, "core.go", m.old, m.new, "^TestExplorerBrokerCore$/^"+m.bound+"$")
			if passed || !strings.Contains(out, m.want) {
				t.Fatalf("mutant passed %v, want a failure reporting %q:\n%s", passed, m.want, out)
			}
			t.Logf("caught:\n%s", out)
		})
	}
}
