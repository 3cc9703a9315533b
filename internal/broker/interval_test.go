package broker

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"marketminer/internal/chaos"
	"marketminer/internal/corr"
	"marketminer/internal/feed"
)

// step is one processor interval on its own: gather the partition's C
// column from the matrix triangle tri, then fold it.
func (r *pairRings) step(tri []float64, d float64) (c, cbar []float64, kind []uint8) {
	return r.fold(r.gather(tri), d)
}

// oracleRings is the per-pair derivation the slot-major ring replaced,
// kept as the reference: one chronological slice per pair, C̄ folded
// from zero over it, the previous interval's divergence recomputed
// from the ring before the push instead of carried.
type oracleRings struct {
	pairs []int
	w     int
	rings [][]float64
}

func oracleAvg(ring []float64) float64 {
	var sum float64
	for _, v := range ring {
		sum += v
	}
	return sum / float64(len(ring))
}

func (r *oracleRings) step(s int, m *corr.Matrix, d float64) []feed.Signal {
	out := make([]feed.Signal, 0, len(r.pairs))
	for idx, k := range r.pairs {
		c := m.AtPair(k)
		ring := r.rings[idx]
		prevDiverged := false
		if len(ring) > 0 {
			prevDiverged = ring[len(ring)-1] < oracleAvg(ring)*(1-d)
		}
		if len(ring) == r.w {
			copy(ring, ring[1:])
			ring = ring[:r.w-1]
		}
		ring = append(ring, c)
		r.rings[idx] = ring
		cbar := oracleAvg(ring)
		diverged := c < cbar*(1-d)
		kind := KindUpdate
		switch {
		case diverged && !prevDiverged:
			kind = KindDiverge
		case !diverged && prevDiverged:
			kind = KindRevert
		}
		out = append(out, feed.Signal{Pair: uint32(k), S: uint32(s), Kind: kind, C: c, Cbar: cbar})
	}
	return out
}

// randomMatrices is a stream of matrices whose coefficients wander
// around slowly moving levels, so every pair crosses its divergence
// band in both directions many times.
func randomMatrices(rng *rand.Rand, n, T int) []*corr.Matrix {
	out := make([]*corr.Matrix, T)
	for s := range out {
		m := corr.NewMatrix(n)
		for k := 0; k < m.NumPairs(); k++ {
			level := 0.5 + 0.4*math.Sin(float64(s)*0.05+float64(k))
			m.SetPair(k, level+0.3*(rng.Float64()-0.5))
		}
		out[s] = m
	}
	return out
}

func sameColumns(t *testing.T, label string, pairs []int, s int, c, cbar []float64, kind []uint8, want []feed.Signal) {
	t.Helper()
	if len(c) != len(want) || len(cbar) != len(want) || len(kind) != len(want) {
		t.Fatalf("%s: columns of %d, %d, %d signals, want %d", label, len(c), len(cbar), len(kind), len(want))
	}
	for idx, w := range want {
		if int(w.Pair) != pairs[idx] || int(w.S) != s || kind[idx] != w.Kind ||
			math.Float64bits(c[idx]) != math.Float64bits(w.C) ||
			math.Float64bits(cbar[idx]) != math.Float64bits(w.Cbar) {
			t.Fatalf("%s: interval %d pair %d: got kind %d C %x C̄ %x, want %+v",
				label, s, pairs[idx], kind[idx], math.Float64bits(c[idx]), math.Float64bits(cbar[idx]), w)
		}
	}
}

// TestSlotMajorRingsMatchPerPairOracle: over random streams the
// slot-major fold and the carried divergence reproduce the per-pair
// derivation bit for bit — for a ring that lived through the stream,
// and for one rebuilt from every prefix of the log and stepped once.
func TestSlotMajorRingsMatchPerPairOracle(t *testing.T) {
	const n, T, d = 7, 150, 0.08
	pairs := []int{0, 2, 3, 7, 11, 12, 20} // a partition's ascending subset of the 21
	for _, w := range []int{1, 5, 60} {
		rng := rand.New(rand.NewSource(int64(w)))
		ms := randomMatrices(rng, n, T+1)
		oracle := &oracleRings{pairs: pairs, w: w, rings: make([][]float64, len(pairs))}
		live := newPairRings(pairs, w)
		log := newPartitionLog(len(pairs), false)
		want := make([][]feed.Signal, T+1)
		for s, m := range ms {
			want[s] = oracle.step(s, m, d)
			if s == T {
				break // the last matrix only extends rebuilt rings
			}
			c, cbar, kind := live.step(m.Values(), d)
			sameColumns(t, "live", pairs, s, c, cbar, kind, want[s])
			log.appendInterval(s, c, cbar, kind)
		}
		for prefix := 0; prefix <= T; prefix++ {
			rebuilt := newPairRings(pairs, w)
			rebuilt.rebuild(log, uint64(prefix*len(pairs)), d)
			// The oracle's signals for this interval followed the same
			// history the log prefix holds.
			c, cbar, kind := rebuilt.step(ms[prefix].Values(), d)
			sameColumns(t, "rebuilt", pairs, prefix, c, cbar, kind, want[prefix])
		}
		// Rebuilding over a used ring leaves nothing of its past behind.
		live.rebuild(log, uint64(3*len(pairs)), d)
		c, cbar, kind := live.step(ms[3].Values(), d)
		sameColumns(t, "rebuilt in place", pairs, 3, c, cbar, kind, want[3])
	}
}

// pairRingsDigest is the FNV-64a of TestPairRingsMatchesParentDigest's
// columns, taken at the commit before C̄ was folded four rows per pass.
const pairRingsDigest = 0xfd3535f9f2396690

// TestPairRingsMatchesParentDigest pins pairRings.step bit for bit: C,
// C̄ and the crossing kinds over 2W+7 intervals, so the ring passes
// through every fill level 1…W and, once full, every remainder of W
// rows by four, at partition widths of 1, 3, 7 and 915 pairs.
func TestPairRingsMatchesParentDigest(t *testing.T) {
	const d = 0.08
	h := fnv.New64a()
	var b [8]byte
	for _, w := range []int{1, 6, 60} {
		for _, np := range []int{1, 3, 7, 915} {
			n := 7
			if np > n*(n-1)/2 {
				n = 61
			}
			pairs := partitionPairs(n, 2)[0][:np]
			rings := newPairRings(pairs, w)
			ms := randomMatrices(rand.New(rand.NewSource(int64(w*1000+np))), n, 2*w+7)
			for _, m := range ms {
				c, cbar, kind := rings.step(m.Values(), d)
				for idx := range c {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(c[idx]))
					h.Write(b[:])
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(cbar[idx]))
					h.Write(b[:])
				}
				h.Write(kind)
			}
		}
	}
	if got := h.Sum64(); got != pairRingsDigest {
		t.Fatalf("digest %#x, want %#x", got, uint64(pairRingsDigest))
	}
}

// columnarFixture is n signals of a 91-pair partition as flat signals
// (offsets assigned) and as the intervals that hold them; the last
// interval is whole.
func columnarFixture(intervals int) (pairs []int, flat []feed.Signal, ivs []feed.Interval) {
	const np = 91
	pairs = make([]int, np)
	for i := range pairs {
		pairs[i] = 3*i + 1
	}
	for s := 0; s < intervals; s++ {
		iv := feed.Interval{S: uint32(s + 20), Base: uint64(s * np), Pairs: np,
			C: make([]float64, np), Cbar: make([]float64, np), Kind: make([]uint8, np)}
		for i := 0; i < np; i++ {
			at := s*np + i
			iv.C[i], iv.Cbar[i], iv.Kind[i] = float64(at)/7, float64(at)/11, uint8(at%3)
			flat = append(flat, feed.Signal{Offset: uint64(at + 1), Pair: uint32(pairs[i]), S: iv.S,
				Kind: iv.Kind[i], C: iv.C[i], Cbar: iv.Cbar[i]})
		}
		ivs = append(ivs, iv)
	}
	return pairs, flat, ivs
}

// The columnar stores must be indistinguishable from the flat signal
// slices they replaced: every read window of the partition log and the
// subscriber's retained stream materialise to the same window of a
// flat copy, in particular where a window starts at, ends at or would
// straddle an interval boundary.
func TestColumnarStoresEqualFlatSlices(t *testing.T) {
	const np, intervals = 91, 50
	pairs, flat, ivs := columnarFixture(intervals)
	n := len(flat)
	part := &partition{pairs: pairs, log: newPartitionLog(np, true)}
	log := part.log
	for _, iv := range ivs {
		log.appendInterval(int(iv.S), iv.C, iv.Cbar, iv.Kind)
	}
	if got := log.end(); got != uint64(n) {
		t.Fatalf("log end %d, want %d", got, n)
	}
	if got := log.records(); got != intervals {
		t.Fatalf("%d records, want %d", got, intervals)
	}

	for _, lo := range []int{0, 1, np - 1, np, np + 1, 2*np - 1, 2 * np, n - np, n - 1} {
		for _, max := range []int{1, 2, 7, np - 1, np, np + 1, 512, 1 << 30} {
			iv, drained := log.read(uint64(lo+1), max)
			want := flat[lo:min(lo+max, (lo/np+1)*np)] // never past the interval
			if drained || iv.Len() != len(want) || iv.Base != uint64(lo/np*np) || int(iv.First) != lo%np || iv.Pairs != np {
				t.Fatalf("read(%d, %d): %d signals (drained %v) base %d first %d, want %d",
					lo+1, max, iv.Len(), drained, iv.Base, iv.First, len(want))
			}
			for i := range want {
				if got := signalAt(&iv, pairs, i); got != want[i] {
					t.Fatalf("read(%d, %d)[%d] = %+v, want %+v", lo+1, max, i, got, want[i])
				}
			}
			if st := log.stampAt(iv.End()); st == 0 || st != log.stampAt(iv.Base+1) {
				t.Fatalf("read(%d, %d): an interval has one append stamp, got %d and %d", lo+1, max, st, log.stampAt(iv.Base+1))
			}
		}
	}
	if got := logSignals(part, 512); !reflect.DeepEqual(got, flat) {
		t.Fatalf("reading the log 512 at a time: %d signals, want the %d logged", len(got), n)
	}
	if iv, drained := log.read(uint64(n+1), 512); iv.Len() != 0 || drained {
		t.Errorf("read past the end of an open log: %d signals, drained %v", iv.Len(), drained)
	}
	log.seal()
	if iv, drained := log.read(uint64(n+1), 512); iv.Len() != 0 || !drained {
		t.Errorf("read past the end of a sealed log: %d signals, drained %v", iv.Len(), drained)
	}
	if st := log.stampAt(0) + log.stampAt(uint64(n+1)); st != 0 {
		t.Errorf("stamps outside the log: %d", st)
	}
	for _, tc := range []struct {
		end       uint64
		w, lo, hi int
	}{
		{uint64(n), 1, intervals - 1, intervals}, {uint64(n), 5, intervals - 5, intervals},
		{uint64(n), 60, 0, intervals}, {3 * np, 5, 0, 3}, {3*np + 40, 2, 1, 3}, {0, 5, 0, 0},
		{uint64(n) + 5*np, 1, intervals - 1, intervals},
	} {
		if got := log.tail(tc.end, tc.w); !reflect.DeepEqual(got, log.recs[tc.lo:tc.hi]) {
			t.Errorf("tail(%d, %d): %d records, want records [%d, %d)", tc.end, tc.w, len(got), tc.lo, tc.hi)
		}
	}

	// A subscriber retaining the same stream in frames of 40: ranges
	// that continue an interval extend its run, redelivered ranges are
	// dropped whole or in part.
	sub, err := NewSubscriber(SubscriberConfig{Group: "g", Member: "m", AckEvery: 100,
		Dial: func(context.Context) (net.Conn, error) { return nil, errors.New("not dialled in this test") }})
	if err != nil {
		t.Fatal(err)
	}
	sub.pairs = [][]int{nil, nil, nil, pairs}
	enc := feed.NewEncoder(io.Discard, nil) // acks go nowhere
	frames, dups := 0, 0
	var vals []float64
	var kinds []uint8
	for lo := 0; lo < n; {
		iv, _ := log.read(uint64(lo+1), 40)
		if frames%5 == 4 && lo >= 10 { // a resend that overlaps what was delivered
			iv, _ = log.read(uint64(lo-10+1), 40)
			dups += min(10, iv.Len())
		}
		// Off the wire a frame's columns are the decoder's, which the
		// next frame overwrites: so are these.
		vals = append(append(vals[:0], iv.C...), iv.Cbar...)
		kinds = append(kinds[:0], iv.Kind...)
		iv.C, iv.Cbar, iv.Kind = vals[:iv.Len()], vals[iv.Len():], kinds
		if _, err := sub.deliver(enc, 3, iv, false, false); err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			vals[i] = math.NaN()
		}
		clear(kinds)
		lo = max(lo, int(iv.End()))
		frames++
	}
	if got := sub.Signals(3); !reflect.DeepEqual(got, flat) {
		t.Fatalf("Signals: %d signals, want the %d delivered", len(got), n)
	}
	if runs := len(sub.signals[3]); runs != intervals {
		t.Errorf("retained %d runs, want one per interval (%d)", runs, intervals)
	}
	if got := sub.Signals(2); got != nil {
		t.Errorf("Signals of an unseen partition: %d signals, want nil", len(got))
	}
	// 100 signals per ack, counted one signal at a time across frames.
	if st := sub.Stats(); st.Delivered != n || st.Duplicates != dups || st.Jumps != 0 || st.Acked != n/100 {
		t.Errorf("stats %+v, want %d delivered, %d duplicates, %d acks", st, n, dups, n/100)
	}
	if got := sub.acked[3]; got != uint64(n/100*100) {
		t.Errorf("last ack at %d, want the last multiple of 100 (%d)", got, n/100*100)
	}
	if _, err := sub.deliver(enc, 4, ivs[0], false, false); err == nil {
		t.Error("a delta for a partition outside the announced topology was accepted")
	}
	short := ivs[0]
	short.Pairs--
	if _, err := sub.deliver(enc, 3, short, false, false); err == nil {
		t.Error("an interval narrower than the partition was accepted")
	}
}

// TestSubscriberWritesEachRunOnce: a 915-pair interval — a 61-stock
// partition's worth — arriving as two MaxDelta frames off one decoder
// is retained as one run whose columns were allocated at the
// interval's length and filled in place: cap == len, and bit-equal to
// what was sent after the decoder has reused its memory.
func TestSubscriberWritesEachRunOnce(t *testing.T) {
	const np, maxDelta = 915, 512
	pairs := make([]int, np)
	iv := feed.Interval{S: 9, Base: 7 * np, Pairs: np,
		C: make([]float64, np), Cbar: make([]float64, np), Kind: make([]uint8, np)}
	for i := range pairs {
		pairs[i] = 2 * i
		iv.C[i], iv.Cbar[i], iv.Kind[i] = float64(i)/13, float64(i)/17, uint8(i%3)
	}
	var wire bytes.Buffer
	enc := feed.NewEncoder(&wire, nil)
	for _, f := range []*feed.DeltaFrame{
		{Interval: feed.Interval{S: iv.S, Base: iv.Base, Pairs: np, C: iv.C[:maxDelta], Cbar: iv.Cbar[:maxDelta], Kind: iv.Kind[:maxDelta]}},
		{Interval: iv.From(maxDelta)},
		{Interval: feed.Interval{S: iv.S + 1, Base: iv.Base + np, Pairs: np, C: iv.C[:1], Cbar: iv.Cbar[:1], Kind: iv.Kind[:1]}},
	} {
		if err := enc.WriteDelta(f); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := NewSubscriber(SubscriberConfig{Group: "g", Member: "m",
		Dial: func(context.Context) (net.Conn, error) { return nil, errors.New("not dialled in this test") }})
	if err != nil {
		t.Fatal(err)
	}
	sub.pairs = [][]int{pairs}
	sub.next[0] = iv.Base + 1
	dec := feed.NewDecoder(&wire)
	for range 3 {
		f, err := dec.Read()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.deliver(feed.NewEncoder(io.Discard, nil), 0, f.(*feed.DeltaFrame).Interval, false, false); err != nil {
			t.Fatal(err)
		}
	}
	runs := sub.signals[0]
	if len(runs) != 2 {
		t.Fatalf("%d runs, want the whole interval and the next one's first signal", len(runs))
	}
	r := runs[0]
	if r.Len() != np || cap(r.C) != np || cap(r.Cbar) != np || cap(r.Kind) != np {
		t.Fatalf("run of %d signals with capacities %d/%d/%d, want %d each",
			r.Len(), cap(r.C), cap(r.Cbar), cap(r.Kind), np)
	}
	for i := range np {
		if math.Float64bits(r.C[i]) != math.Float64bits(iv.C[i]) || math.Float64bits(r.Cbar[i]) != math.Float64bits(iv.Cbar[i]) || r.Kind[i] != iv.Kind[i] {
			t.Fatalf("signal %d retained as (%v, %v, %d), sent (%v, %v, %d)", i, r.C[i], r.Cbar[i], r.Kind[i], iv.C[i], iv.Cbar[i], iv.Kind[i])
		}
	}
	if st := sub.Stats(); st.Delivered != np+1 || st.Duplicates != 0 || st.Jumps != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStepAndAppendAllocatePerInterval: the steady-state cost of one
// interval in a partition processor is a constant number of
// allocations (its two column arrays and, amortised, the record slot),
// whatever the pair count.
func TestStepAndAppendAllocatePerInterval(t *testing.T) {
	const n, w = 61, 60
	m := randomMatrices(rand.New(rand.NewSource(1)), n, 1)[0]
	perInterval := func(pairs []int) float64 {
		rings := newPairRings(pairs, w)
		log := newPartitionLog(len(pairs), false)
		s := 0
		return testing.AllocsPerRun(200, func() {
			c, cbar, kind := rings.step(m.Values(), 0.1)
			log.appendInterval(s, c, cbar, kind)
			s++
		})
	}
	all := partitionPairs(n, 2)[0]
	if few, many := perInterval(all[:9]), perInterval(all); many > 3 || many != few {
		t.Fatalf("%.1f allocations per interval of %d pairs, %.1f of 9: want the same, at most 3", many, len(all), few)
	}
}

// BenchmarkPartitionStep is one interval of a partition processor at
// the benchmark's scale — 915 of 61 stocks' pairs, W = 60: ring push,
// chronological fold, crossing kinds, log append.
func BenchmarkPartitionStep(b *testing.B) {
	const n, w = 61, 60
	pairs := partitionPairs(n, 2)[0]
	ms := randomMatrices(rand.New(rand.NewSource(1)), n, 64)
	rings := newPairRings(pairs, w)
	log := newPartitionLog(len(pairs), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 { // a day and a half; keeps the retained log bounded
			log = newPartitionLog(len(pairs), false)
		}
		c, cbar, kind := rings.step(ms[i%len(ms)].Values(), 0.1)
		log.appendInterval(i, c, cbar, kind)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/signal")
}

// TestE2EResumeInsideInterval: with MaxDelta below the partition's pair
// count every interval travels as several ranges, so a chaos cut or
// bit flip usually leaves the subscriber's watermark inside an
// interval, and the resubscribe resumes there. One member, both
// partitions, partition 1's processor hard-killed mid-day: the stream
// must still be dense, free of duplicates and jumps, and bit-equal to
// the unfaulted log.
func TestE2EResumeInsideInterval(t *testing.T) {
	cfg := testConfig()
	cfg.Partitions = 2
	cfg.MaxDelta = 5 // 14 pairs per partition: ranges of 5, 5 and 4
	rets := testReturns(8, 60)
	want := referenceLogs(t, cfg, rets)

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
	var sub *Subscriber
	midInterval := 0 // resubscriptions from a watermark inside an interval
	dial := chaos.New(chaos.Spec{Seed: 9, CorruptEvery: 8 << 10, CutEvery: 3 << 10}).Dialer(
		func(ctx context.Context) (net.Conn, error) {
			sub.mu.Lock()
			for p, next := range sub.next {
				if next > 1 && int(next-1)%len(b.PartitionPairs(p)) != 0 {
					midInterval++
				}
			}
			sub.mu.Unlock()
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.String())
		})
	sub, err = NewSubscriber(SubscriberConfig{Group: "g", Member: "m", FromStart: true, AckEvery: 3,
		Dial: dial, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sub.Run(ctx) }()
	waitFor(t, func() bool { return b.MemberCount() == 1 })

	for s := 0; s < len(rets)/2; s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return b.parts[1].log.end() > 0 })
	b.KillPartition(1)
	for s := len(rets) / 2; s < len(rets); s++ {
		if err := b.OfferReturns(s, rets[s]); err != nil {
			t.Fatal(err)
		}
	}
	b.FinishInput()
	if err := <-done; err != nil {
		t.Fatalf("subscriber failed: %v", err)
	}
	for p := range want {
		got := sub.Signals(p)
		sameSignals(t, "partition", got, want[p])
		for i, sg := range got {
			if sg.Offset != uint64(i+1) {
				t.Fatalf("partition %d: offset %d at index %d", p, sg.Offset, i)
			}
		}
	}
	st := sub.Stats()
	if st.Duplicates != 0 || st.Jumps != 0 || st.Reconnects == 0 {
		t.Fatalf("stats %+v: want reconnects, no duplicates, no jumps", st)
	}
	if midInterval == 0 {
		t.Fatalf("none of %d reconnects resumed inside an interval", st.Reconnects)
	}
	if gen := b.genOf(1); gen == 0 {
		t.Fatal("kill did not advance the partition generation")
	}
}
