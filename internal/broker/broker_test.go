package broker

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"marketminer/internal/corr"
	"marketminer/internal/feed"
)

// testReturns builds T deterministic cross-sectional return vectors.
func testReturns(n, T int) [][]float64 {
	out := make([][]float64, T)
	for s := range out {
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.001*math.Sin(float64(s+1)*0.37+float64(i)*1.13) +
				0.0004*math.Cos(float64(s*i+3)*0.91)
		}
		out[s] = v
	}
	return out
}

func testConfig() Config {
	return Config{
		N:          8,
		Partitions: 4,
		M:          4,
		W:          3,
		D:          0.01,
		LeaseTTL:   80 * time.Millisecond,
		LeaseEvery: 5 * time.Millisecond,
		Heartbeat:  20 * time.Millisecond,
	}
}

// feedAll offers every interval and seals the input.
func feedAll(t *testing.T, b *Broker, rets [][]float64) {
	t.Helper()
	for s, r := range rets {
		if err := b.OfferReturns(s, r); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
}

// drainLogs waits for completion and copies every partition log.
func drainLogs(t *testing.T, b *Broker) [][]feed.Signal {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := b.WaitDone(ctx); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	logs := make([][]feed.Signal, b.NumPartitions())
	for p := range logs {
		logs[p] = logSignals(b.parts[p], 1<<30)
	}
	return logs
}

// logSignals materialises a partition log read max signals at a time.
func logSignals(p *partition, max int) []feed.Signal {
	var out []feed.Signal
	var buf feed.Interval
	for {
		iv, _ := p.log.read(uint64(len(out)+1), max, &buf)
		if iv.Len() == 0 {
			return out
		}
		for i := 0; i < iv.Len(); i++ {
			out = append(out, signalAt(&iv, p.pairs, i))
		}
	}
}

// referenceLogs runs an unfaulted broker over rets and returns its
// partition logs — the ground truth every faulted run must reproduce
// bit-identically.
func referenceLogs(t *testing.T, cfg Config, rets [][]float64) [][]feed.Signal {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	feedAll(t, b, rets)
	return drainLogs(t, b)
}

func sameSignals(t *testing.T, label string, got, want []feed.Signal) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d signals, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Offset != w.Offset || g.Pair != w.Pair || g.S != w.S || g.Kind != w.Kind ||
			math.Float64bits(g.C) != math.Float64bits(w.C) ||
			math.Float64bits(g.Cbar) != math.Float64bits(w.Cbar) {
			t.Fatalf("%s: signal %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

func TestPartitionOfStableAndTotal(t *testing.T) {
	const pairs, parts = 1830, 8
	counts := make([]int, parts)
	for id := 0; id < pairs; id++ {
		p := PartitionOf(id, parts)
		if p != PartitionOf(id, parts) {
			t.Fatalf("pair %d: unstable partition", id)
		}
		if p < 0 || p >= parts {
			t.Fatalf("pair %d: partition %d out of range", id, p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < pairs/parts/2 || c > pairs/parts*2 {
			t.Fatalf("partition %d badly balanced: %d of %d", p, c, pairs)
		}
	}
}

func TestBrokerPartitionsCoverUniverse(t *testing.T) {
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	nPairs := 8 * 7 / 2
	seen := make(map[int]int)
	for p := 0; p < b.NumPartitions(); p++ {
		prev := -1
		for _, id := range b.PartitionPairs(p) {
			if id <= prev {
				t.Fatalf("partition %d pairs not ascending", p)
			}
			prev = id
			seen[id]++
		}
	}
	if len(seen) != nPairs {
		t.Fatalf("pairs covered: %d, want %d", len(seen), nPairs)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("pair %d owned by %d partitions", id, c)
		}
	}
}

// TestBrokerLogsDeterministic runs the same input twice and demands
// bit-identical partition logs.
func TestBrokerLogsDeterministic(t *testing.T) {
	rets := testReturns(8, 30)
	a := referenceLogs(t, testConfig(), rets)
	b := referenceLogs(t, testConfig(), rets)
	for p := range a {
		sameSignals(t, "partition", a[p], b[p])
	}
}

// TestBrokerSignalKinds sanity-checks the generated stream: every
// ready interval appears once per pair, offsets are contiguous, and a
// Revert only ever follows a Diverge.
func TestBrokerSignalKinds(t *testing.T) {
	cfg := testConfig()
	rets := testReturns(8, 40)
	logs := referenceLogs(t, cfg, rets)
	total := 0
	for p, sigs := range logs {
		diverged := make(map[uint32]bool)
		for i, sg := range sigs {
			if sg.Offset != uint64(i+1) {
				t.Fatalf("partition %d: offset %d at index %d", p, sg.Offset, i)
			}
			switch sg.Kind {
			case KindDiverge:
				if diverged[sg.Pair] {
					t.Fatalf("partition %d: double diverge for pair %d", p, sg.Pair)
				}
				diverged[sg.Pair] = true
			case KindRevert:
				if !diverged[sg.Pair] {
					t.Fatalf("partition %d: revert without diverge for pair %d", p, sg.Pair)
				}
				diverged[sg.Pair] = false
			}
		}
		total += len(sigs)
	}
	// 40 intervals, M=4 → 37 ready matrices × 28 pairs.
	if want := 37 * 28; total != want {
		t.Fatalf("total signals %d, want %d", total, want)
	}
}

// TestKillPartitionRebalanceDeterministic hard-kills one partition
// processor mid-stream; the lease checker must relaunch it and the
// regenerated log must be bit-identical to the unfaulted run.
func TestKillPartitionRebalanceDeterministic(t *testing.T) {
	cfg := testConfig()
	rets := testReturns(8, 40)
	want := referenceLogs(t, cfg, rets)

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	for s := 0; s < 20; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return b.parts[1].log.end() > 0 })
	b.KillPartition(1)
	for s := 20; s < 40; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
	got := drainLogs(t, b)
	if gen := b.genOf(1); gen == 0 {
		t.Fatal("kill did not advance the partition generation")
	}
	for p := range want {
		sameSignals(t, "partition", got[p], want[p])
	}
}

// killedLogs runs a broker over rets that hard-kills partition part's
// processor once intervals 0…after are offered and the processor has
// logged every ready matrix among them, waits for the lease checker to
// relaunch it, then offers the rest and drains every partition log.
func killedLogs(t *testing.T, cfg Config, rets [][]float64, part, after int) [][]feed.Signal {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	for s := 0; s <= after; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	pt := b.parts[part]
	ready := max(0, after+1-(cfg.M-1))
	waitFor(t, func() bool { return pt.log.end() == uint64(ready*len(pt.pairs)) })
	gen := b.genOf(part)
	b.KillPartition(part)
	waitFor(t, func() bool { return b.genOf(part) > gen })
	for s := after + 1; s < len(rets); s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
	return drainLogs(t, b)
}

// logsDigest is the FNV-64a of every signal of every partition log, in
// partition then offset order.
func logsDigest(logs [][]feed.Signal) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for p, sigs := range logs {
		word(uint64(p))
		word(uint64(len(sigs)))
		for _, sg := range sigs {
			word(sg.Offset)
			word(uint64(sg.Pair)<<32 | uint64(sg.S))
			word(uint64(sg.Kind))
			word(math.Float64bits(sg.C))
			word(math.Float64bits(sg.Cbar))
		}
	}
	return h.Sum64()
}

// brokerLogPins are the logsDigest of a 40-interval testReturns day at
// testConfig(), per correlation type, taken while each partition
// processor still owned a pair-subset engine restored from a state
// store. At M=4 a Combined coefficient's weighted-Pearson half equals
// its Maronna fit, so Combined is pinned again at M=10, where it
// differs.
var brokerLogPins = []struct {
	ty     corr.Type
	m      int
	digest uint64
}{
	{corr.Pearson, 4, 0x97e82e5bcbef3f05},
	{corr.Maronna, 4, 0x9d0ace134733c6fc},
	{corr.Combined, 4, 0x9d0ace134733c6fc},
	{corr.Combined, 10, 0xcbfebe1b87d91eeb},
}

// TestBrokerLogsMatchParentDigest pins every partition log bit for bit
// for each correlation type: a clean run, and runs whose partition 1
// processor is hard-killed before the first ready window, mid-day and
// after the last interval, must all yield the pinned digest.
func TestBrokerLogsMatchParentDigest(t *testing.T) {
	rets := testReturns(8, 40)
	for _, pin := range brokerLogPins {
		cfg := testConfig()
		cfg.Type, cfg.M = pin.ty, pin.m
		if got := logsDigest(referenceLogs(t, cfg, rets)); got != pin.digest {
			t.Errorf("%v M=%d clean: digest %#x, want %#x", pin.ty, pin.m, got, pin.digest)
		}
		for _, after := range []int{cfg.M - 2, len(rets) / 2, len(rets) - 1} {
			if got := logsDigest(killedLogs(t, cfg, rets, 1, after)); got != pin.digest {
				t.Errorf("%v M=%d killed after interval %d: digest %#x, want %#x", pin.ty, pin.m, after, got, pin.digest)
			}
		}
	}
}

// TestKillAtEveryInterval hard-kills partition 1's processor after
// each interval of a 40-interval day in turn — before, at and after the
// first ready window and on every interval after it — and demands the
// unfaulted logs bit for bit every time: a relaunched processor resumes
// at its log's record count, whatever that count is.
func TestKillAtEveryInterval(t *testing.T) {
	cfg := testConfig()
	rets := testReturns(8, 40)
	want := referenceLogs(t, cfg, rets)
	for after := range rets {
		got := killedLogs(t, cfg, rets, 1, after)
		for p := range want {
			sameSignals(t, fmt.Sprintf("killed after interval %d, partition %d", after, p), got[p], want[p])
		}
	}
}

// TestMatrixLogFollowsSlowestPartition: over a 61-stock day the matrix
// log retains no more triangles than the furthest-behind processor
// still needs plus the one being logged, and the offered-returns log
// nothing the correlation stage has read — checked after every
// interval, once every stage has caught up.
func TestMatrixLogFollowsSlowestPartition(t *testing.T) {
	cfg := testConfig()
	cfg.N, cfg.M = 61, 10
	rets := testReturns(cfg.N, 40)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	for s := range rets {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { base, _ := retained(b.input); return base == s+1 })
		ready := max(0, s+1-(cfg.M-1))
		for _, p := range b.parts {
			waitFor(t, func() bool { return p.log.records() == ready })
		}
		waitFor(t, func() bool { base, n := retained(b.matrices); return base+n == ready })
		lag := 0
		for _, p := range b.parts {
			lag = max(lag, ready-p.log.records())
		}
		if _, n := retained(b.matrices); n > lag+1 {
			t.Fatalf("interval %d: %d triangles retained, max processor lag %d", s, n, lag)
		}
		if _, n := retained(b.input); n != 0 {
			t.Fatalf("interval %d: %d return vectors retained after the correlation stage read them", s, n)
		}
	}
	b.FinishInput()
	drainLogs(t, b)
}

// TestMatrixLogHeldByKilledPartition: a processor that is killed
// mid-day and kept down while the other partitions run ahead holds the
// matrix-log floor at its own record count — the log retains its lag
// plus the triangle being logged and releases nothing it will read
// again — and its relaunch resumes there and reproduces the unfaulted
// logs.
func TestMatrixLogHeldByKilledPartition(t *testing.T) {
	cfg := testConfig()
	cfg.N, cfg.M = 61, 10
	// No lease loop tick and no lapsed lease: the killed processor
	// stays down until the test steps the tick that relaunches it.
	cfg.LeaseEvery, cfg.LeaseTTL = time.Hour, time.Hour
	rets := testReturns(cfg.N, 40)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	const killAt, downUntil = 20, 30
	pt := b.parts[1]
	for s := 0; s <= downUntil; s++ {
		if s == killAt {
			// The processor dies at the beat before it would read
			// another matrix.
			waitFor(t, func() bool { return pt.log.records() == s-(cfg.M-1) })
			b.KillPartition(1)
		}
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	ready := downUntil + 1 - (cfg.M - 1)
	for _, p := range b.parts {
		if p != pt {
			waitFor(t, func() bool { return p.log.records() == ready })
		}
	}
	held := pt.log.records()
	waitFor(t, func() bool { base, n := retained(b.matrices); return base >= held && base+n == ready })
	base, n := retained(b.matrices)
	if lag := ready - held; lag == 0 || base != held || n > lag+1 {
		t.Fatalf("partition 1 down at record %d of %d: log base %d, %d triangles retained", held, ready, base, n)
	}
	gen := b.genOf(1)
	b.apply(&event{kind: evTick, now: b.cfg.Now()}, nil)
	if b.genOf(1) <= gen {
		t.Fatalf("the tick after the kill left partition 1 at gen %d", gen)
	}
	for s := downUntil + 1; s < len(rets); s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
	got := drainLogs(t, b)
	want := referenceLogs(t, cfg, rets)
	for p := range want {
		sameSignals(t, fmt.Sprintf("partition %d", p), got[p], want[p])
	}
}

// TestPartitionLogFollowsLowestCommit: over a 61-stock day with one
// acking FromStart member, each partition log retains at most
// max(W, the records above the group's commit) + 1 records — checked
// after every interval, once the processors have logged it and the
// member has taken it — and once a record has been released, every
// interval is logged in a released record's columns: gather allocates
// no column storage.
func TestPartitionLogFollowsLowestCommit(t *testing.T) {
	cfg := testConfig()
	cfg.N, cfg.M, cfg.Partitions, cfg.W = 61, 10, 2, 5
	rets := testReturns(cfg.N, 60)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	addr, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubscriber(SubscriberConfig{Group: "g", Member: "m", FromStart: true, Dial: feed.Dialer(addr.String())})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sub.Run(ctx) }()
	waitFor(t, func() bool { return sub.Stats().Assigns == 1 })

	g := b.groupOf("g")
	seen := make([]map[*float64]bool, len(b.parts)) // every C column each log has held
	released := make([]bool, len(b.parts))
	for p := range seen {
		seen[p] = map[*float64]bool{}
	}
	for s := range rets {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
		ready := max(0, s+1-(cfg.M-1))
		total := 0
		for _, p := range b.parts {
			waitFor(t, func() bool { return p.log.records() == ready })
			total += int(p.log.end())
		}
		waitFor(t, func() bool { return sub.Stats().Delivered == total })
		for i, p := range b.parts {
			var commit uint64
			b.apply(nil, func(*brokerState) { commit = g.commits[i] })
			np := uint64(len(p.pairs))
			above := int((p.log.end() - commit + np - 1) / np)
			p.log.mu.Lock()
			n, base := len(p.log.recs), p.log.base
			var newest *float64
			if n > 0 {
				newest = &p.log.recs[n-1].C[0]
			}
			p.log.mu.Unlock()
			if n > max(cfg.W, above)+1 {
				t.Fatalf("interval %d partition %d: %d records retained, W %d, %d records above the commit", s, i, n, cfg.W, above)
			}
			if newest == nil {
				continue
			}
			if released[i] && !seen[i][newest] {
				t.Fatalf("interval %d partition %d: logged in new columns after a release", s, i)
			}
			seen[i][newest], released[i] = true, base > 0
		}
	}
	b.FinishInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range released {
		if !released[i] || len(seen[i]) > cfg.W+2 {
			t.Fatalf("partition %d: released %v, %d column arrays over the day", i, released[i], len(seen[i]))
		}
	}
}

// TestTailSurvivesAStaleRelease: a generation the lease moved away
// from can carry out its release while the new generation rebuilds
// from tail. That release's floor is at most tail's first record, and
// it moves the kept records within the log; the records tail returned
// must still be the ones it read.
func TestTailSurvivesAStaleRelease(t *testing.T) {
	const np, n, w = 2, 8, 3
	l := newPartitionLog(np)
	for s := range n {
		v := float64(s)
		l.appendInterval(s, []float64{v, v + 0.5}, []float64{-v, -v}, []uint8{KindUpdate, KindUpdate})
	}
	recs := l.tail(l.end(), w)
	l.release(n - w)
	if len(recs) != w {
		t.Fatalf("tail returned %d records, want %d", len(recs), w)
	}
	for i, r := range recs {
		s := n - w + i
		if int(r.S) != s || r.Base != uint64(s*np) || r.C[0] != float64(s) || r.Cbar[1] != -float64(s) {
			t.Fatalf("record %d after the release: %+v, want interval %d", i, r, s)
		}
	}
}

// TestInputLogRefillsReleasedVectors: an offer copies into the vector
// of an entry released below the floor, so a log whose reader keeps up
// allocates nothing per entry, and the copy is still the offered one.
func TestInputLogRefillsReleasedVectors(t *testing.T) {
	l := &inputLog{lastS: -1}
	vec := func(s int) []float64 { return []float64{float64(s), -float64(s), 0.5} }
	l.offer(0, vec(0))
	first, _, _ := l.get(0)
	l.release(1)
	l.offer(1, vec(1))
	e, ok, _ := l.get(1)
	if !ok || &e.rets[0] != &first.rets[0] || !slices.Equal(e.rets, vec(1)) {
		t.Fatalf("entry 1 = %v in a new vector %v; want %v in entry 0's released one", e.rets, ok, vec(1))
	}
	s, in := 2, vec(2)
	if allocs := testing.AllocsPerRun(100, func() {
		l.offer(s, in)
		l.release(s)
		s++
	}); allocs != 0 {
		t.Errorf("%.0f allocations per offered entry with the reader caught up, want 0", allocs)
	}
}

// genOf reads partition p's processor generation.
func (b *Broker) genOf(p int) (gen int) {
	b.apply(nil, func(st *brokerState) { gen = st.leases[p].gen })
	return gen
}

// groupOf reads the group named name.
func (b *Broker) groupOf(name string) (g *group) {
	b.apply(nil, func(st *brokerState) { g = st.groups[name] })
	return g
}

// epochOf reads group g's epoch.
func (b *Broker) epochOf(g *group) (epoch uint64) {
	b.apply(nil, func(*brokerState) { epoch = g.epoch })
	return epoch
}

// viewFor reads member's assignment in group g.
func (b *Broker) viewFor(g *group, member string) (v groupView) {
	b.apply(nil, func(st *brokerState) { v = st.viewFor(g, member) })
	return v
}

// retained reports an input log's release base and retained entries.
func retained(l *inputLog) (base, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, len(l.entries)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGroupAssignmentRoundRobin(t *testing.T) {
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	g, _ := b.joinGroup("g", "m-1")
	b.joinGroup("g", "m-0")
	b.joinGroup("g", "m-2")
	want := map[string][]int{
		"m-0": {0, 3}, // sorted member ids deal partitions round-robin
		"m-1": {1},
		"m-2": {2},
	}
	for id, parts := range want {
		v := b.viewFor(g, id)
		if len(v.partitions) != len(parts) {
			t.Fatalf("%s: assigned %v, want %v", id, v.partitions, parts)
		}
		for i := range parts {
			if v.partitions[i] != parts[i] {
				t.Fatalf("%s: assigned %v, want %v", id, v.partitions, parts)
			}
		}
	}
	// A swept member has no assignment.
	if v := b.viewFor(g, "ghost"); len(v.partitions) != 0 {
		t.Fatalf("ghost assigned %v", v.partitions)
	}
}

func TestCommitMonotonicAndClamped(t *testing.T) {
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	g, _ := b.joinGroup("g", "m")
	np := len(b.parts[1].pairs)
	for s := 0; s*np < 12; s++ { // offsets 1..12, in whole intervals
		b.parts[1].log.appendInterval(s, make([]float64, np), make([]float64, np), make([]uint8, np))
	}
	end := b.parts[1].log.end()
	commitAt := func(p int) (c uint64) {
		b.apply(nil, func(*brokerState) { c = g.commits[p] })
		return c
	}
	b.commit(g, 1, 10)
	b.commit(g, 1, 7) // stale replay ack must not rewind
	b.commit(g, 99, 5)
	if got := commitAt(1); got != 10 {
		t.Fatalf("commit = %d, want 10", got)
	}
	// An ack past the log end must not push the commit beyond data that
	// exists, or a member resuming from commit+1 would skip the range.
	b.commit(g, 1, 999)
	if got := commitAt(1); got != end {
		t.Fatalf("overshooting ack committed %d, want clamp to log end %d", got, end)
	}
	b.commit(g, 0, 5) // empty partition log: clamps to zero
	if got := commitAt(0); got != 0 {
		t.Fatalf("empty-log ack committed %d, want 0", got)
	}
}

func TestMemberGraceSweep(t *testing.T) {
	cfg := testConfig()
	cfg.MemberGrace = 30 * time.Millisecond
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	g, session := b.joinGroup("g", "m-0")
	b.joinGroup("g", "m-1")
	e0 := b.epochOf(g)
	b.leaveGroup(g, "m-0", session)
	waitFor(t, func() (swept bool) {
		b.apply(nil, func(*brokerState) { swept = len(g.members) == 1 })
		return swept
	})
	if e := b.epochOf(g); e <= e0 {
		t.Fatalf("epoch %d did not advance past %d on sweep", e, e0)
	}
	// The survivor now owns everything.
	v := b.viewFor(g, "m-1")
	if len(v.partitions) != b.NumPartitions() {
		t.Fatalf("survivor assigned %v", v.partitions)
	}
}

// A member whose client hangs up ends its session at once, not at the
// handler's next heartbeat write: on a frozen clock no heartbeat is
// ever due, so only the hang-up itself can end it.
func TestHangupEndsSessionOnFrozenClock(t *testing.T) {
	cfg := testConfig()
	frozen := time.Unix(1_000_000, 0)
	cfg.Now = func() time.Time { return frozen }
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	ln, err := b.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialPinClient(t, ln.String(), "m")
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.epoch != 0
	})
	c.conn.Close()
	for deadline := time.Now().Add(time.Second); b.MemberCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("member still alive 1 s after its client hung up")
		}
	}
}

func TestOfferReturnsValidation(t *testing.T) {
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.OfferReturns(0, make([]float64, 3)); err == nil {
		t.Fatal("short vector accepted")
	}
	bad := make([]float64, 8)
	bad[5] = math.NaN()
	if err := b.OfferReturns(0, bad); err == nil {
		t.Fatal("NaN accepted")
	}
	bad[5] = math.Inf(1)
	if err := b.OfferReturns(0, bad); err == nil {
		t.Fatal("Inf accepted")
	}
	ok := make([]float64, 8)
	if err := b.OfferReturns(3, ok); err != nil {
		t.Fatal(err)
	}
	// Stale interval is a silent idempotent drop.
	if err := b.OfferReturns(3, ok); err != nil {
		t.Fatal(err)
	}
	if got := len(b.input.entries); got != 1 {
		t.Fatalf("input log has %d entries, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 1, M: 4}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := New(Config{N: feed.MaxStocks + 1, M: 4}); err == nil {
		t.Fatal("a universe no Assign can announce was accepted")
	}
	if _, err := New(Config{N: 8, M: 1}); err == nil {
		t.Fatal("M=1 accepted")
	}
	b, err := New(Config{N: 3, M: 4, Partitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.NumPartitions() != 3 { // clamped to the 3-pair universe
		t.Fatalf("partitions = %d, want 3", b.NumPartitions())
	}
}
