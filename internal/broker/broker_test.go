package broker

import (
	"context"
	"math"
	"os"
	"sync"
	"testing"
	"time"

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
		N:             8,
		Partitions:    4,
		M:             4,
		W:             3,
		D:             0.01,
		SnapshotEvery: 4,
		LeaseTTL:      80 * time.Millisecond,
		LeaseEvery:    5 * time.Millisecond,
		Heartbeat:     20 * time.Millisecond,
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
	for {
		iv, _ := p.log.read(uint64(len(out)+1), max)
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
	b.parts[1].mu.Lock()
	gen := b.parts[1].gen
	b.parts[1].mu.Unlock()
	if gen == 0 {
		t.Fatal("kill did not advance the partition generation")
	}
	for p := range want {
		sameSignals(t, "partition", got[p], want[p])
	}
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
	commitAt := func(p int) uint64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return g.commits[p]
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

// recordingStore wraps a stateStore, capturing every saved procState
// and optionally failing loads (a lost or rejected snapshot forcing a
// cold-start replay of the partition log).
type recordingStore struct {
	inner stateStore

	mu       sync.Mutex
	saves    []recordedSave
	failLoad bool
}

type recordedSave struct {
	part int
	st   procState
}

func (r *recordingStore) save(part int, fp string, payload any) error {
	if st, ok := payload.(procState); ok {
		r.mu.Lock()
		r.saves = append(r.saves, recordedSave{part, st})
		r.mu.Unlock()
	}
	return r.inner.save(part, fp, payload)
}

func (r *recordingStore) load(part int, fp string, payload any) error {
	r.mu.Lock()
	fail := r.failLoad
	r.mu.Unlock()
	if fail {
		return os.ErrNotExist
	}
	return r.inner.load(part, fp, payload)
}

func (r *recordingStore) recorded() []recordedSave {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recordedSave(nil), r.saves...)
}

// TestNoStateSaveDuringReplay: a cold-started processor replaying a
// non-empty log (its snapshot was lost) must not save state until its
// cursor passes the log. A mid-replay save would pair a lagging Cursor
// with the full log's EndOffset; restoring it would push already-logged
// intervals into rings rebuilt as of EndOffset, duplicating C values in
// the W-window and breaking the bit-identical contract. The invariant
// checked here: every saved state has EndOffset equal to the signals
// its Cursor's input prefix generates.
func TestNoStateSaveDuringReplay(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotEvery = 1 // as aggressive as possible: replay must still save nothing
	rets := testReturns(8, 40)
	want := referenceLogs(t, testConfig(), rets)

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := &recordingStore{inner: b.store}
	b.store = rec
	b.Start()
	for s := 0; s < 24; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	// Partition 2 must fully process the prefix first, so the post-kill
	// replay spans 24 intervals — far more than SnapshotEvery.
	wantEnd := uint64((24 - (cfg.M - 1)) * len(b.parts[2].pairs))
	waitFor(t, func() bool { return b.parts[2].log.end() == wantEnd })

	rec.mu.Lock()
	rec.failLoad = true // the relaunch cold-starts and replays the log
	rec.mu.Unlock()
	b.KillPartition(2)
	waitFor(t, func() bool {
		b.parts[2].mu.Lock()
		defer b.parts[2].mu.Unlock()
		return b.parts[2].gen > 0
	})
	for s := 24; s < 40; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
	got := drainLogs(t, b)
	for p := range want {
		sameSignals(t, "partition", got[p], want[p])
	}
	saves := rec.recorded()
	if len(saves) == 0 {
		t.Fatal("no state saves recorded")
	}
	for _, sv := range saves {
		ready := sv.st.Cursor - (cfg.M - 1)
		if ready < 0 {
			ready = 0
		}
		if want := uint64(ready * len(b.parts[sv.part].pairs)); sv.st.EndOffset != want {
			t.Fatalf("partition %d saved Cursor %d with EndOffset %d, want %d (mid-replay save)",
				sv.part, sv.st.Cursor, sv.st.EndOffset, want)
		}
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
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(g.members) == 1
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
