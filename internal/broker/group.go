package broker

import (
	"sort"
	"time"

	"marketminer/internal/metrics"
)

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

// joinGroup registers (or revives) a member and returns the member's
// new session token. Membership growth bumps the epoch so every
// handler re-announces assignments.
func (b *Broker) joinGroup(groupName, memberID string) (g *group, session uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g = b.groups[groupName]
	if g == nil {
		g = &group{
			name:    groupName,
			epoch:   1,
			members: make(map[string]*member),
			commits: make([]uint64, len(b.parts)),
		}
		b.groups[groupName] = g
	}
	m := g.members[memberID]
	fresh := m == nil
	if fresh {
		m = &member{}
		g.members[memberID] = m
	}
	m.session++
	m.alive = true
	m.lastSeen = b.cfg.Now()
	if fresh {
		g.epoch++
	}
	close(b.watch)
	b.watch = make(chan struct{})
	return g, m.session
}

// leaveGroup marks a member's session as disconnected. The member
// keeps its assignment until MemberGrace expires (reconnect-friendly);
// only sweepMembers removes it.
func (b *Broker) leaveGroup(g *group, memberID string, session uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := g.members[memberID]
	if m == nil || m.session != session {
		return // a newer session owns this member now
	}
	m.alive = false
	m.lastSeen = b.cfg.Now()
}

// sweepMembers removes members whose disconnect outlived MemberGrace
// and rebalances their groups. Called from the lease loop.
func (b *Broker) sweepMembers() {
	now := b.cfg.Now()
	b.mu.Lock()
	bumped := false
	for _, g := range b.groups {
		for id, m := range g.members {
			if !m.alive && now.Sub(m.lastSeen) > b.cfg.MemberGrace {
				delete(g.members, id)
				g.epoch++
				bumped = true
				metrics.Counter("broker.member_sweeps").Inc()
				b.cfg.Logf("broker: group %q member %q grace expired; rebalancing (epoch %d)", g.name, id, g.epoch)
			}
		}
	}
	if bumped {
		close(b.watch)
		b.watch = make(chan struct{})
	}
	b.mu.Unlock()
}

// groupView is a consistent snapshot of one member's assignment at one
// epoch, taken under the broker lock.
type groupView struct {
	epoch      uint64
	partitions []int
	commits    []uint64 // committed offset per assigned partition
}

// viewFor computes member's current assignment: partitions are dealt
// round-robin over the lexicographically sorted member ids. Sorting —
// not join order — makes the assignment deterministic across handler
// scheduling, which the e2e determinism test depends on.
func (b *Broker) viewFor(g *group, memberID string) groupView {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	v := groupView{epoch: g.epoch}
	slot := -1
	for i, id := range ids {
		if id == memberID {
			slot = i
			break
		}
	}
	if slot < 0 {
		return v // swept: no assignment
	}
	for p := range b.parts {
		if p%len(ids) == slot {
			v.partitions = append(v.partitions, p)
			v.commits = append(v.commits, g.commits[p])
		}
	}
	return v
}

// epochOf reads the group's current epoch.
func (b *Broker) epochOf(g *group) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return g.epoch
}

// touchMember refreshes a member's liveness (any inbound frame).
func (b *Broker) touchMember(g *group, memberID string, session uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m := g.members[memberID]; m != nil && m.session == session {
		m.lastSeen = b.cfg.Now()
	}
}

// commit records an acked offset. Commits are monotonic per partition:
// a stale or duplicate ack (a reconnecting member replaying its last
// ack) is a no-op, so the committed stream only moves forward. The
// offset is clamped to the partition log end — a buggy client must not
// push the group commit past data that exists, or a member later
// resuming from commit+1 would silently skip the range in between.
func (b *Broker) commit(g *group, part int, offset uint64) {
	if part < 0 || part >= len(b.parts) {
		return
	}
	if end := b.parts[part].log.end(); offset > end {
		offset = end
	}
	b.mu.Lock()
	if offset > g.commits[part] {
		g.commits[part] = offset
	}
	b.mu.Unlock()
	metrics.Counter("broker.acks").Inc()
}
