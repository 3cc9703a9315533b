package broker

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marketminer/internal/feed"
	"marketminer/internal/metrics"
)

// pinClient is one raw group-member connection of the broker script:
// it records every frame the broker sends and acks only when told.
type pinClient struct {
	name string
	conn net.Conn
	enc  *feed.Encoder

	mu     sync.Mutex
	frames []string // non-heartbeat frames, one line each, in arrival order
	epoch  uint64   // of the last Assign
	parts  []int    // of the last Assign
	got    map[int]uint64
	ended  bool
}

func dialPinClient(t *testing.T, addr, name string, offsets ...feed.PartitionOffset) *pinClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &pinClient{name: name, conn: conn, enc: feed.NewEncoder(conn, nil), got: map[int]uint64{}}
	if err := c.enc.WriteGroupSub(&feed.GroupSub{Group: "g", Member: name, Offsets: offsets}); err != nil {
		t.Fatal(err)
	}
	go c.read()
	return c
}

func (c *pinClient) read() {
	dec := feed.NewDecoder(c.conn)
	for {
		fr, err := dec.Read()
		if err != nil {
			return
		}
		c.mu.Lock()
		switch f := fr.(type) {
		case *feed.Assign:
			c.epoch, c.parts = f.Epoch, nil
			for _, p := range f.Partitions {
				c.parts = append(c.parts, int(p))
			}
			c.frames = append(c.frames, fmt.Sprintf("assign epoch %d stocks %d of %d partitions %v", f.Epoch, f.Stocks, f.NumPartitions, c.parts))
		case *feed.SnapshotFrame:
			c.frames = append(c.frames, pinInterval("snapshot", int(f.Partition), f.Interval))
			c.got[int(f.Partition)] = f.Interval.End()
		case *feed.DeltaFrame:
			if f.Sealed {
				c.frames = append(c.frames, fmt.Sprintf("p%d sealed", f.Partition))
				break
			}
			c.frames = append(c.frames, pinInterval("delta", int(f.Partition), f.Interval))
			c.got[int(f.Partition)] = f.Interval.End()
		case *feed.End:
			c.frames = append(c.frames, "end")
			c.ended = true
		}
		c.mu.Unlock()
	}
}

func pinInterval(kind string, p int, iv feed.Interval) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d %s s %d base %d first %d pairs %d:", p, kind, iv.S, iv.Base, iv.First, iv.Pairs)
	for i := 0; i < iv.Len(); i++ {
		fmt.Fprintf(&b, " %d/%x/%x", iv.Kind[i], math.Float64bits(iv.C[i]), math.Float64bits(iv.Cbar[i]))
	}
	return b.String()
}

// canonical returns the session's frames with each run of data frames
// between two assignments grouped by partition: one handler interleaves
// its partitions in map order, but each partition's frames, and where
// the assignments fall, are the broker's decisions.
func (c *pinClient) canonical() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := slices.Clone(c.frames)
	part := func(s string) int {
		var p int
		fmt.Sscanf(s, "p%d", &p)
		return p
	}
	for i := 0; i < len(out); {
		j := i
		for j < len(out) && strings.HasPrefix(out[j], "p") {
			j++
		}
		sort.SliceStable(out[i:j], func(a, b int) bool { return part(out[i+a]) < part(out[i+b]) })
		i = j + 1
	}
	return out
}

// offset is the highest offset received on partition p.
func (c *pinClient) offset(p int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[p]
}

func (c *pinClient) ack(t *testing.T, p int, off uint64) {
	t.Helper()
	if err := c.enc.WriteAck(&feed.AckFrame{Partition: uint16(p), Offset: off}); err != nil {
		t.Fatal(err)
	}
}

// pinCommits reads group g's committed offsets.
func pinCommits(b *Broker, g string) (commits []uint64) {
	b.apply(nil, func(st *brokerState) { commits = slices.Clone(st.groups[g].commits) })
	return commits
}

// brokerScriptDigest is TestBrokerScriptMatchesParentDigest's pin,
// taken from the broker before its lease, generation, membership,
// epoch and commit decisions moved into one pure core.
const brokerScriptDigest uint64 = 0x918932f58eefd2c9

// TestBrokerScriptMatchesParentDigest drives the real Broker over TCP
// through one script on an injected clock and pins a digest of
// everything it decided: every non-heartbeat frame each member
// received, the group epoch at every settled step, the final commits,
// the broker.* counter deltas and the log lines. Each step acts only
// once the previous one has settled (every processor caught up, every
// member holding the current epoch and its partitions' log ends), so
// the frames do not depend on scheduling.
//
// The script: member a joins, then b (a snapshot); a acks, replays a
// stale ack and acks past a log end; partition 1 is killed and its
// relaunch stalls before its first beat (its restore log line blocks);
// c, d and e join, leaving d and e without partitions; b drops and
// rejoins inside MemberGrace, resuming mid-interval; c drops and is
// swept once the grace runs out, d inheriting its partition from the
// clamped commit; the input is sealed; the clock jumps past LeaseTTL,
// so the stalled processor's lease expires and its successor finishes
// the day; every member reaches End.
func TestBrokerScriptMatchesParentDigest(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Date(2009, 5, 25, 9, 30, 0, 0, time.UTC).UnixNano())
	advance := func(d time.Duration) { clock.Add(int64(d)) }

	var logMu sync.Mutex
	var lines []string
	stalled, resumed := make(chan int, 2), [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var release [2]sync.Once
	unstall := func(gen int) { release[gen-1].Do(func() { close(resumed[gen-1]) }) }
	cfg := Config{
		N: 6, Partitions: 3, M: 4, W: 3, D: 0.01,
		LeaseTTL:    time.Hour,
		LeaseEvery:  5 * time.Millisecond,
		MemberGrace: time.Minute,
		Heartbeat:   20 * time.Millisecond,
		Now:         func() time.Time { return time.Unix(0, clock.Load()) },
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			logMu.Lock()
			lines = append(lines, line)
			logMu.Unlock()
			// Partition 1's relaunches hold here until the script lets
			// them go: gen 1 is the stalled processor, gen 2 its
			// successor, held until every member has the new epoch.
			for gen := 1; gen <= 2; gen++ {
				if strings.HasPrefix(line, fmt.Sprintf("broker: partition 1 gen %d resumed", gen)) {
					stalled <- gen
					<-resumed[gen-1]
				}
			}
		},
	}
	counters := []string{"broker.rebalances", "broker.member_sweeps", "broker.acks", "broker.processor_restores",
		"broker.signals_published", "broker.snapshot_sends", "broker.evictions"}
	base := map[string]int64{}
	for _, n := range counters {
		base[n] = metrics.Counter(n).Value()
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer unstall(2)
	defer unstall(1)
	b.Start()
	ln, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.String()
	rets := testReturns(cfg.N, 30)

	digest := fnv.New64a()
	sessions := map[string][]*pinClient{}
	live := map[string]*pinClient{} // the current session of each member in the group
	join := func(name string, offsets ...feed.PartitionOffset) *pinClient {
		c := dialPinClient(t, addr, name, offsets...)
		sessions[name] = append(sessions[name], c)
		live[name] = c
		return c
	}
	drop := func(name string) {
		live[name].conn.Close()
		delete(live, name)
	}
	defer func() {
		for _, ss := range sessions {
			for _, c := range ss {
				c.conn.Close()
			}
		}
	}()

	offered, epoch, stalledPart, sealedIn := 0, uint64(1), -1, false
	offer := func(upTo int) {
		for ; offered < upTo; offered++ {
			if err := b.OfferReturns(offered, rets[offered]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ended := map[string]bool{}
	stall := func(want int) {
		t.Helper()
		select {
		case gen := <-stalled:
			if gen != want {
				t.Fatalf("partition 1 relaunched as gen %d, want %d", gen, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("partition 1 not relaunched as gen %d in 10s", want)
		}
	}
	settle := func(label string) {
		t.Helper()
		ready := max(0, offered-(cfg.M-1))
		waitFor(t, func() bool {
			for p, pt := range b.parts {
				if p == stalledPart {
					continue
				}
				if len(pt.pairs) > 0 && pt.log.records() != ready || sealedIn && !pt.log.isSealed() {
					return false
				}
			}
			for name, c := range live {
				c.mu.Lock()
				ok := c.ended == ended[name]
				if !c.ended {
					ok = ok && c.epoch == epoch
					for _, p := range c.parts {
						ok = ok && c.got[p] == b.parts[p].log.end()
					}
				}
				c.mu.Unlock()
				if !ok {
					return false
				}
			}
			return true
		})
		fmt.Fprintf(digest, "settled %s: epoch %d\n", label, epoch)
	}
	acked := int64(0)
	acks := func(n int64) { // wait until the broker has taken n more acks
		t.Helper()
		acked += n
		waitFor(t, func() bool { return metrics.Counter("broker.acks").Value()-base["broker.acks"] == acked })
	}
	np := func(p int) uint64 { return uint64(len(b.PartitionPairs(p))) }
	for p := range b.NumPartitions() {
		if np(p) == 0 {
			t.Fatalf("partition %d owns no pair", p)
		}
	}

	a := join("a") // the group is born at epoch 1; a's join moves it
	epoch++
	settle("a joins")
	offer(10)
	settle("intervals 0-9")
	join("b") // b takes partition 1 as a snapshot
	epoch++
	settle("b joins")

	a.ack(t, 0, 3*np(0))
	a.ack(t, 0, 2*np(0)) // stale: the commit stays
	a.ack(t, 2, 999)     // past the log end: clamped to it
	acks(3)
	offer(15)
	settle("intervals 10-14")

	b.KillPartition(1)
	epoch++
	stall(1)
	stalledPart = 1
	settle("partition 1 killed, its relaunch stalled")

	for _, name := range []string{"c", "d", "e"} { // c inherits partition 2 from the clamped commit
		join(name)
		epoch++
		settle(name + " joins")
	}

	drop("b")
	join("b", feed.PartitionOffset{Partition: 1, Offset: 9*np(1) - 2}) // inside an interval
	settle("b rejoins")

	offer(25)
	settle("intervals 15-24")

	// c drops; its handler sees the hang-up and ends its session, then
	// the grace runs out and the sweep rebalances.
	drop("c")
	waitFor(t, func() bool {
		advance(cfg.Heartbeat)
		time.Sleep(3 * cfg.Heartbeat)
		return b.MemberCount() == 4
	})
	advance(cfg.MemberGrace + time.Second)
	epoch++
	settle("c swept")

	live["d"].ack(t, 2, live["d"].offset(2)-1)
	live["b"].ack(t, 1, live["b"].offset(1))
	acks(2)

	offer(len(rets))
	b.FinishInput()
	sealedIn = true
	ended["a"], ended["d"] = true, true
	settle("input sealed")

	advance(cfg.LeaseTTL + time.Second) // the stalled processor's lease expires
	epoch++
	stall(2)
	waitFor(t, func() bool {
		for _, name := range []string{"b", "e"} {
			c := live[name]
			c.mu.Lock()
			e := c.epoch
			c.mu.Unlock()
			if e != epoch {
				return false
			}
		}
		return true
	})
	unstall(2)
	unstall(1) // superseded: it must write nothing
	stalledPart = -1
	ended["b"], ended["e"] = true, true
	settle("lease expired, day finished")

	for _, c := range live {
		c.conn.Close()
	}
	fmt.Fprintf(digest, "commits %v\n", pinCommits(b, "g"))
	b.Close()

	names := make([]string, 0, len(sessions))
	for name := range sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, c := range sessions[name] {
			fmt.Fprintf(digest, "member %s session %d\n", name, i+1)
			for _, f := range c.canonical() {
				io.WriteString(digest, f+"\n")
			}
		}
	}
	for _, n := range counters {
		fmt.Fprintf(digest, "%s +%d\n", n, metrics.Counter(n).Value()-base[n])
	}
	logMu.Lock()
	sorted := slices.Clone(lines)
	logMu.Unlock()
	sort.Strings(sorted)
	for _, l := range sorted {
		io.WriteString(digest, l+"\n")
	}
	if testing.Verbose() {
		for _, n := range counters {
			t.Logf("%s +%d", n, metrics.Counter(n).Value()-base[n])
		}
		for _, l := range sorted {
			t.Log(l)
		}
	}
	if got := digest.Sum64(); got != brokerScriptDigest {
		t.Fatalf("broker script digest %#x, want %#x", got, brokerScriptDigest)
	}
}
