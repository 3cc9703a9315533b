package broker

import (
	"context"
	"net"
	"slices"
	"time"

	"marketminer/internal/feed"
	"marketminer/internal/metrics"
)

// Serve accepts subscriber connections until Close, which closes the
// listener. Each connection is one group-member session.
func (b *Broker) Serve(l net.Listener) error {
	defer context.AfterFunc(b.ctx, func() { l.Close() })()
	for {
		conn, err := l.Accept()
		if err != nil {
			if b.ctx.Err() != nil {
				return nil
			}
			return err
		}
		spawn(&b.connWG, func() { b.handleConn(conn) })
	}
}

// subCursor is the per-partition delivery state of one connection.
type subCursor struct {
	next       uint64 // next offset to send (1-based)
	sealedSent bool
}

// handleConn speaks the broker side of the subscription protocol: one
// GroupSub in, then Assign / Snapshot / Delta / Heartbeat / End out,
// with Ack frames flowing back on the same connection.
//
// Delivery per partition resumes from max(member-supplied offset,
// in-session delivery watermark, group commit). A member with no
// progress at all gets the compacted snapshot (the newest interval:
// the latest signal per pair) instead of the full log — unless the
// GroupSub asked FromStart, which forces a full replay from offset 1.
func (b *Broker) handleConn(conn net.Conn) {
	defer conn.Close()
	dec := feed.NewDecoder(conn)
	fr, err := dec.Read()
	if err != nil {
		return
	}
	gs, ok := fr.(*feed.GroupSub)
	if !ok || gs.Group == "" || gs.Member == "" {
		return
	}
	g, session := b.joinGroup(gs.Group, gs.Member)
	defer b.leaveGroup(g, gs.Member, session)

	// Ack reader: commits flow back concurrently with delivery. A read
	// error (disconnect, chaos fault) closes the connection, which in
	// turn fails the writer below. readerDone doubles as the linger
	// signal: after End the writer must not close the socket until the
	// client has hung up, or an RST would destroy the in-flight tail
	// (End included) before the client reads it.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			fr, err := dec.Read()
			if err != nil {
				conn.Close()
				return
			}
			if ack, ok := fr.(*feed.AckFrame); ok {
				b.commit(g, int(ack.Partition), ack.Offset)
				b.apply(&event{kind: evTouch, group: g.name, member: gs.Member, session: session, now: b.cfg.Now()}, nil)
			}
		}
	}()

	// resume holds the highest offset known delivered per partition:
	// seeded from the GroupSub, folded forward when a partition is
	// reassigned away mid-session so a later reassign-back continues
	// where delivery stopped instead of re-taking the snapshot path
	// (which would jump the cursor over signals this member never saw).
	resume := make(map[int]uint64, len(gs.Offsets))
	for _, po := range gs.Offsets {
		resume[int(po.Partition)] = po.Offset
	}
	enc := feed.NewEncoder(conn, nil)
	cursors := make(map[int]*subCursor)
	var curEpoch uint64
	var seq uint64
	lastWrite := b.cfg.Now()

	for {
		if b.ctx.Err() != nil {
			return
		}
		w := b.watcher()
		wrote := false

		// Re-announce the assignment whenever the epoch moves (member
		// churn or a partition-processor rebalance).
		var v groupView
		b.apply(nil, func(st *brokerState) {
			if g.epoch != curEpoch {
				v = st.viewFor(g, gs.Member)
			}
		})
		if v.epoch != 0 { // it moved: a group's epoch starts at 1
			curEpoch = v.epoch
			parts := make([]uint16, len(v.partitions))
			for i, p := range v.partitions {
				parts[i] = uint16(p)
			}
			// The assignment leads: its topology is what the snapshots
			// and deltas that follow are read against.
			if err := enc.WriteAssign(&feed.Assign{
				Epoch:         curEpoch,
				Stocks:        uint32(b.cfg.N),
				NumPartitions: uint16(len(b.parts)),
				Partitions:    parts,
			}); err != nil {
				return
			}
			wrote = true
			for i, p := range v.partitions {
				if cursors[p] == nil {
					cursors[p] = b.openCursor(enc, g, p, resume[p], v.commits[i], gs.FromStart)
					if cursors[p] == nil {
						return // snapshot write failed
					}
				}
			}
			// Partitions reassigned away stop being served here, but
			// their delivery watermark survives in resume.
			for p, cur := range cursors {
				if !slices.Contains(v.partitions, p) {
					resume[p] = max(resume[p], cur.next-1)
					delete(cursors, p)
				}
			}
		}

		allSealed := true
		for p, cur := range cursors {
			log := b.parts[p].log
			if end := log.end(); cur.next > 0 && end >= cur.next && end-(cur.next-1) > b.cfg.EvictLag {
				metrics.Counter("broker.evictions").Inc()
				b.cfg.Logf("broker: evicting member %q (partition %d lag %d)", gs.Member, p, end-(cur.next-1))
				return
			}
			iv, drained := log.read(cur.next, b.cfg.MaxDelta)
			if iv.Len() > 0 {
				if err := enc.WriteDelta(&feed.DeltaFrame{Partition: uint16(p), Interval: iv}); err != nil {
					return
				}
				cur.next = iv.End() + 1
				wrote = true
			} else if drained && !cur.sealedSent {
				if err := enc.WriteDelta(&feed.DeltaFrame{Partition: uint16(p), Sealed: true}); err != nil {
					return
				}
				cur.sealedSent = true
				wrote = true
			}
			if !cur.sealedSent {
				allSealed = false
			}
		}

		// A member holding no partitions (the group has more members
		// than partitions) is trivially sealed, but only once the whole
		// day is drained — ending it earlier would shrink the group's
		// standby capacity while partitions are still producing.
		if len(cursors) == 0 {
			allSealed = b.Done()
		}
		if allSealed { // a partition seals only after the input
			seq++
			if enc.WriteEnd(&feed.End{Seq: seq}) == nil {
				select { // linger for the client's final acks + close
				case <-readerDone:
				case <-b.ctx.Done():
				case <-time.After(10 * time.Second):
				}
			}
			return
		}
		if wrote {
			lastWrite = b.cfg.Now()
			continue
		}
		if now := b.cfg.Now(); now.Sub(lastWrite) >= b.cfg.Heartbeat {
			seq++
			if err := enc.WriteHeartbeat(&feed.Heartbeat{Seq: seq}); err != nil {
				return
			}
			lastWrite = now
		}
		if !b.wait(b.ctx, w, b.cfg.Heartbeat) {
			return
		}
	}
}

// joinGroup registers (or revives) a member under a new session and
// returns its group and session token.
func (b *Broker) joinGroup(groupName, memberID string) (g *group, session uint64) {
	b.apply(&event{kind: evJoin, group: groupName, member: memberID, now: b.cfg.Now()}, func(st *brokerState) {
		g = st.groups[groupName]
		session = g.members[memberID].session
	})
	return g, session
}

// leaveGroup marks a member's session as disconnected. The member
// keeps its assignment until MemberGrace expires (reconnect-friendly);
// only the lease loop's sweep removes it.
func (b *Broker) leaveGroup(g *group, memberID string, session uint64) {
	b.apply(&event{kind: evLeave, group: g.name, member: memberID, session: session, now: b.cfg.Now()}, nil)
}

// commit steps a member's ack, carrying the partition's log end for
// the clamp.
func (b *Broker) commit(g *group, part int, offset uint64) {
	var end uint64
	if part >= 0 && part < len(b.parts) {
		end = b.parts[part].log.end()
	}
	b.apply(&event{kind: evAck, group: g.name, part: part, offset: offset, end: end}, nil)
}

// openCursor decides where delivery starts for a newly assigned
// partition and sends the snapshot when compaction applies (an empty
// log has nothing to compact: delivery starts at offset 1). Returns
// nil when the connection died mid-snapshot.
func (b *Broker) openCursor(enc *feed.Encoder, g *group, p int, resumeOff, commitOff uint64, fromStart bool) *subCursor {
	start := max(resumeOff, commitOff)
	if start == 0 && !fromStart {
		log := b.parts[p].log
		if last := log.tail(log.end(), 1); len(last) == 1 {
			if enc.WriteSnapshot(&feed.SnapshotFrame{Partition: uint16(p), Interval: last[0]}) != nil {
				return nil
			}
			metrics.Counter("broker.snapshot_sends").Inc()
			start = last[0].End()
		}
	}
	return &subCursor{next: start + 1}
}

// ListenAndServe is the one-call serving entry point used by
// cmd/mmbroker.
func (b *Broker) ListenAndServe(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	spawn(&b.connWG, func() {
		if err := b.Serve(l); err != nil {
			b.cfg.Logf("broker: serve: %v", err)
		}
	})
	// Give callers the bound address (port 0 support for tests).
	return l.Addr(), nil
}
