package broker

import (
	"fmt"
	"sort"
	"time"
)

// The broker's decisions — lease renewal, generation fencing, kill and
// expiry, group membership, epochs and commits — are made by
// brokerState.step, a pure state machine with no I/O, locks or clock
// reads. The Broker shell steps it under mu (apply) and carries out its
// effects; the tests' explorer drives it against a model of the
// processors, partition logs and members.

type evKind uint8

const (
	evStart   evKind = iota // launch every partition's first generation at now
	evBeat                  // processor (part, gen) renews its lease at now
	evPublish               // processor (part, gen) appends an interval of n signals
	evFinish                // processor (part, gen) drained the sealed input
	evKill                  // hard-kill part's current generation
	evTick                  // expire leases and sweep members at now
	evJoin                  // member (re)joins group on a new connection at now
	evLeave                 // member's session ended at now
	evTouch                 // member's session sent a frame at now
	evAck                   // member acked offset of part, whose log ends at end
)

type event struct {
	kind      evKind
	part, gen int
	n         int
	now       time.Time
	group     string
	member    string
	session   uint64
	offset    uint64
	end       uint64
}

type effKind uint8

const (
	effLaunch effKind = iota // run generation gen of partition part
	effWake                  // broadcast a state change to every waiter
	effCount                 // metric text += n
	effLog                   // log line text
)

type effect struct {
	kind      effKind
	part, gen int
	text      string
	n         int64
}

// fate is a processor generation's standing: whether it may go on.
type fate uint8

const (
	holds      fate = iota
	killed          // SIGKILL analogue: exit without a word
	superseded      // a newer generation holds the lease: fall silent
)

// lease is one partition's processor lease.
type lease struct {
	gen     int       // processor generation (fencing token)
	killed  bool      // hard-kill flag for the current generation
	renewed time.Time // last renewal
	done    bool      // sealed input fully processed
}

// group is one consumer group: a set of members sharing the partition
// space, plus the group's committed ack offsets. Assignments are
// recomputed from the sorted member list, so they are a pure function
// of (membership, partition count) — every member derives the same
// view, and a member that drops and rejoins inside MemberGrace gets
// its old partitions back.
type group struct {
	name    string
	epoch   uint64
	members map[string]*member
	commits []uint64 // per-partition committed offset (max of acks)
}

// member is one group member. A member survives its connection:
// session fencing (a strictly increasing session counter) lets a
// reconnect displace a stale handler, and lastSeen + MemberGrace
// decides when a silent member finally loses its assignment.
type member struct {
	session  uint64
	alive    bool
	lastSeen time.Time
}

// brokerState is everything the broker decides with.
type brokerState struct {
	ttl, grace time.Duration
	started    bool // evStart stepped: the leases hold their first renewal
	leases     []lease
	groups     map[string]*group

	out []effect // the step in progress
}

// fate reports where generation gen of partition p stands.
func (st *brokerState) fate(p, gen int) fate {
	switch l := &st.leases[p]; {
	case l.gen != gen:
		return superseded
	case l.killed:
		return killed
	}
	return holds
}

// step applies one event and returns the effects to carry out, and for
// a processor's own events (beat, publish, finish) its fate: only a
// generation that holds the lease renews, appends or finishes.
func (st *brokerState) step(ev event) (f fate, effs []effect) {
	st.out = nil
	switch ev.kind {
	case evStart:
		st.started = true
		for p := range st.leases {
			st.leases[p].renewed = ev.now
			st.out = append(st.out, effect{kind: effLaunch, part: p, gen: st.leases[p].gen})
		}
	case evBeat:
		if f = st.fate(ev.part, ev.gen); f == holds {
			st.leases[ev.part].renewed = ev.now
		}
	case evPublish:
		if f = st.fate(ev.part, ev.gen); f == holds {
			st.count("broker.signals_published", ev.n)
			st.wake()
		}
	case evFinish:
		if f = st.fate(ev.part, ev.gen); f == holds {
			st.leases[ev.part].done = true
			st.wake()
		}
	case evKill:
		st.leases[ev.part].killed = true
	case evTick:
		st.expire(ev.now)
		st.sweep(ev.now)
	case evJoin:
		st.join(ev)
	case evLeave, evTouch:
		// Only the member's current session speaks for it: an older
		// one's handler is unwinding after a reconnect displaced it.
		// A member that left keeps its assignment until the sweep.
		if m := st.groups[ev.group].members[ev.member]; m != nil && m.session == ev.session {
			m.alive = m.alive && ev.kind == evTouch
			m.lastSeen = ev.now
		}
	case evAck:
		st.ack(ev)
	}
	return f, st.out
}

// expire relaunches every partition whose processor was killed or let
// its lease lapse under a new generation, and rebalances every group
// so subscribers observe it. Before evStart no lease has been granted,
// so none can lapse: a relaunch then would run beside start's own.
func (st *brokerState) expire(now time.Time) {
	if !st.started {
		return
	}
	for p := range st.leases {
		l := &st.leases[p]
		if l.done || !l.killed && now.Sub(l.renewed) <= st.ttl {
			continue
		}
		*l = lease{gen: l.gen + 1, renewed: now}
		st.count("broker.rebalances", 1)
		st.logf("broker: partition %d lease expired; relaunching gen %d", p, l.gen)
		st.out = append(st.out, effect{kind: effLaunch, part: p, gen: l.gen})
		for _, g := range st.groups {
			g.epoch++
		}
		st.wake()
	}
}

// sweep removes members whose disconnect outlived the grace and
// rebalances their groups.
func (st *brokerState) sweep(now time.Time) {
	for _, g := range st.groups {
		for id, m := range g.members {
			if !m.alive && now.Sub(m.lastSeen) > st.grace {
				delete(g.members, id)
				g.epoch++
				st.count("broker.member_sweeps", 1)
				st.logf("broker: group %q member %q grace expired; rebalancing (epoch %d)", g.name, id, g.epoch)
				st.wake()
			}
		}
	}
}

// join registers or revives a member under a new session. Membership
// growth bumps the epoch so every handler re-announces assignments.
func (st *brokerState) join(ev event) {
	g := st.groups[ev.group]
	if g == nil {
		g = &group{name: ev.group, epoch: 1, members: map[string]*member{}, commits: make([]uint64, len(st.leases))}
		st.groups[ev.group] = g
	}
	m := g.members[ev.member]
	if m == nil {
		m = &member{}
		g.members[ev.member] = m
		g.epoch++
	}
	m.session++
	m.alive = true
	m.lastSeen = ev.now
	st.logf("broker: member %q joined group %q (session %d)", ev.member, ev.group, m.session)
	st.wake()
}

// ack records an acked offset. Commits are monotonic per partition: a
// stale or duplicate ack (a reconnecting member replaying its last
// ack) is a no-op, so the committed stream only moves forward. The
// offset is clamped to the partition log end — a buggy client must not
// push the group commit past data that exists, or a member later
// resuming from commit+1 would silently skip the range in between.
func (st *brokerState) ack(ev event) {
	g := st.groups[ev.group]
	if ev.part < 0 || ev.part >= len(g.commits) {
		return // not a partition: the frame came off the wire
	}
	if off := min(ev.offset, ev.end); off > g.commits[ev.part] {
		g.commits[ev.part] = off
	}
	st.count("broker.acks", 1)
}

// groupView is a consistent snapshot of one member's assignment at one
// epoch.
type groupView struct {
	epoch      uint64
	partitions []int
	commits    []uint64 // committed offset per assigned partition
}

// viewFor computes member's current assignment: partitions are dealt
// round-robin over the lexicographically sorted member ids. Sorting —
// not join order — makes the assignment deterministic across handler
// scheduling, which the e2e determinism test depends on.
func (st *brokerState) viewFor(g *group, memberID string) groupView {
	ids := make([]string, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	v := groupView{epoch: g.epoch}
	slot := sort.SearchStrings(ids, memberID)
	if slot == len(ids) || ids[slot] != memberID {
		return v // swept: no assignment
	}
	for p := slot; p < len(st.leases); p += len(ids) {
		v.partitions = append(v.partitions, p)
		v.commits = append(v.commits, g.commits[p])
	}
	return v
}

func (st *brokerState) wake() { st.out = append(st.out, effect{kind: effWake}) }

func (st *brokerState) count(name string, n int) {
	st.out = append(st.out, effect{kind: effCount, text: name, n: int64(n)})
}

func (st *brokerState) logf(format string, args ...any) {
	st.out = append(st.out, effect{kind: effLog, text: fmt.Sprintf(format, args...)})
}
