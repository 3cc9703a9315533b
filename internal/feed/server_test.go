package feed

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"marketminer/internal/taq"
)

// serverScript drives s through a seeded mix of per-quote Publish,
// PublishBatch, Flush and day changes — including a PublishBatch whose
// slice changes day part-way — over runs of 1, BS−1, BS, BS+1 and
// 3·BS+7 quotes, then Finish. It returns a copy of every quote it
// handed over, in order, and the slices it handed over.
func serverScript(s *Server, u *taq.Universe, seed uint64) (all []taq.Quote, handed [][]taq.Quote) {
	bs := s.cfg.BatchSize
	rng := rand.New(rand.NewPCG(seed, uint64(bs)))
	lens := []int{1, bs - 1, bs, bs + 1, 3*bs + 7}
	day := 0
	gen := func(n int) []taq.Quote {
		out := make([]taq.Quote, n)
		for i := range out {
			out[i] = taq.Quote{
				Day:     day,
				SeqTime: rng.Float64() * taq.TradingDaySec,
				Symbol:  u.Symbol(rng.IntN(u.Len())),
				Bid:     100 + rng.Float64(),
				Ask:     101 + rng.Float64(),
				BidSize: rng.IntN(100),
				AskSize: rng.IntN(100),
			}
		}
		all = append(all, out...)
		return out
	}
	for range 80 {
		n := lens[rng.IntN(len(lens))]
		switch rng.IntN(5) {
		case 0:
			q := gen(n)
			handed = append(handed, q)
			for _, q := range q {
				s.Publish(q)
			}
		case 1:
			q := gen(n)
			handed = append(handed, q)
			s.PublishBatch(q)
		case 2:
			s.Flush()
		case 3:
			day++
		case 4:
			// One call whose slice crosses a day boundary.
			q := gen(n)
			day++
			q = append(q, gen(lens[rng.IntN(len(lens))])...)
			handed = append(handed, q)
			s.PublishBatch(q)
		}
	}
	s.Finish()
	return all, handed
}

func hashQuote(h hash.Hash64, q taq.Quote) {
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	put(uint64(q.Day))
	put(math.Float64bits(q.SeqTime))
	h.Write([]byte(q.Symbol))
	put(math.Float64bits(q.Bid))
	put(math.Float64bits(q.Ask))
	put(uint64(q.BidSize))
	put(uint64(q.AskSize))
}

// subscriberBytes subscribes from sequence 0 through an in-memory pipe
// and returns every byte the handler writes until it hangs up.
func subscriberBytes(t *testing.T, s *Server) <-chan []byte {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	go s.handle(srvEnd)
	if err := NewEncoder(cliEnd, nil).WriteSubscribe(&Subscribe{From: 0}); err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	go func() {
		defer cliEnd.Close()
		b, _ := io.ReadAll(cliEnd)
		out <- b
	}()
	return out
}

// TestServerLogMatchesParentDigest pins the sealed log — every batch's
// Seq, Day and quotes — and the exact bytes a subscriber reads, for a
// seeded script at two batch sizes. A subscriber attached before the
// first quote and one attached after Finish must read the same bytes.
// The digests were taken from the server that copied every quote into
// its own log; who owns the quotes must not move them.
func TestServerLogMatchesParentDigest(t *testing.T) {
	u := testUniverse(t)
	for _, c := range []struct {
		bs         int
		log, bytes uint64
	}{
		{64, 0xd121e9e722e54c95, 0x53ed514d12de8e3e},
		{256, 0x4f07a1d4d67355de, 0x4c64edb667f8851d},
	} {
		s, err := NewServer(ServerConfig{Universe: u, BatchSize: c.bs, Heartbeat: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		early := subscriberBytes(t, s)
		for s.Stats().Served == 0 {
			time.Sleep(time.Millisecond)
		}
		all, _ := serverScript(s, u, 20080301)

		h := fnv.New64a()
		var b [8]byte
		n := 0
		for i, bt := range s.log {
			if bt.Seq != uint64(i+1) {
				t.Fatalf("BS %d: log[%d].Seq = %d", c.bs, i, bt.Seq)
			}
			binary.LittleEndian.PutUint64(b[:], bt.Seq)
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], uint64(bt.Day))
			h.Write(b[:])
			for _, q := range bt.Quotes {
				if q != all[n] {
					t.Fatalf("BS %d: logged quote %d differs from the one published", c.bs, n)
				}
				n++
				hashQuote(h, q)
			}
		}
		if n != len(all) {
			t.Fatalf("BS %d: log holds %d quotes, %d published", c.bs, n, len(all))
		}
		late := <-subscriberBytes(t, s)
		if got := <-early; string(got) != string(late) {
			t.Fatalf("BS %d: early subscriber read %d bytes, late %d; want identical", c.bs, len(got), len(late))
		}
		wire := fnv.New64a()
		wire.Write(late)
		if h.Sum64() != c.log || wire.Sum64() != c.bytes {
			t.Errorf("BS %d: %d batches, %d quotes: log digest %#x, wire digest %#x (%d B); want %#x, %#x",
				c.bs, len(s.log), n, h.Sum64(), wire.Sum64(), len(late), c.log, c.bytes)
		}
		s.Close()
	}
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b taq.Quote) bool {
	f := math.Float64bits
	return a.Day == b.Day && f(a.SeqTime) == f(b.SeqTime) && a.Symbol == b.Symbol &&
		f(a.Bid) == f(b.Bid) && f(a.Ask) == f(b.Ask) && a.BidSize == b.BidSize && a.AskSize == b.AskSize
}

// TestPublishBatchLogsCallerMemory: every full run and the tail of a
// PublishBatch are sealed as cap-clipped subslices of the caller's
// slice — the same first element, no copy, no spare capacity.
func TestPublishBatchLogsCallerMemory(t *testing.T) {
	u := testUniverse(t)
	const bs = 64
	s, err := NewServer(ServerConfig{Universe: u, BatchSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	day := testQuotes(u, 10*bs+5, 0)
	s.PublishBatch(day)
	s.Finish()
	if len(s.log) != 11 {
		t.Fatalf("%d batches, want 11", len(s.log))
	}
	for i, b := range s.log {
		want := min(bs, len(day)-i*bs)
		if &b.Quotes[0] != &day[i*bs] || len(b.Quotes) != want || cap(b.Quotes) != want {
			t.Errorf("batch %d: len %d cap %d, aliased %v; want the caller's %d quotes at %d, cap == len",
				i, len(b.Quotes), cap(b.Quotes), &b.Quotes[0] == &day[i*bs], want, i*bs)
		}
	}
}

// TestServerNeverWritesCallerMemory: after the mixed script, every
// slice the caller handed over still holds, bit for bit, what it held
// when it was handed over.
func TestServerNeverWritesCallerMemory(t *testing.T) {
	u := testUniverse(t)
	for _, bs := range []int{64, 256} {
		s, err := NewServer(ServerConfig{Universe: u, BatchSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		all, handed := serverScript(s, u, 7)
		n := 0
		for _, h := range handed {
			for _, q := range h {
				if !sameBits(q, all[n]) {
					t.Fatalf("BS %d: caller quote %d was overwritten", bs, n)
				}
				n++
			}
		}
		if n != len(all) {
			t.Fatalf("BS %d: handed %d quotes, generated %d", bs, n, len(all))
		}
		s.Close()
	}
}

// TestPublishAfterAliasedTailCopies: a Publish that extends a tail the
// server holds as an alias copies the tail into its own buffer before
// appending, so the quote the caller keeps next to that tail is never
// written, and the sealed batch is the server's memory.
func TestPublishAfterAliasedTailCopies(t *testing.T) {
	u := testUniverse(t)
	const bs = 64
	s, err := NewServer(ServerConfig{Universe: u, BatchSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	day := testQuotes(u, 80, 0)
	snap := slices.Clone(day)
	s.PublishBatch(day[:70]) // one full batch, a 6-quote tail held as an alias
	if len(s.tail) != 6 || &s.tail[0] != &day[64] {
		t.Fatalf("tail of %d quotes not held as the caller's", len(s.tail))
	}
	extra := day[79]
	extra.SeqTime = -1
	s.Publish(extra)
	if len(s.tail) != 0 || len(s.pending) != 7 {
		t.Fatalf("after Publish: tail %d, pending %d; want 0 and 7", len(s.tail), len(s.pending))
	}
	s.Flush()
	for i := range day {
		if !sameBits(day[i], snap[i]) {
			t.Fatalf("caller quote %d was overwritten", i)
		}
	}
	b := s.log[1].Quotes
	if len(b) != 7 || cap(b) != 7 || &b[0] == &day[64] || !slices.Equal(b[:6], day[64:70]) || b[6] != extra {
		t.Fatalf("sealed merge: len %d cap %d aliased %v; want an exact copy of the tail plus the extra quote",
			len(b), cap(b), &b[0] == &day[64])
	}
}

// TestPublishBatchDayAllocatesLittle: handing a 100 000-quote day to
// PublishBatch at the default batch size allocates the batch headers
// and the log's index, not the quotes: under 1 % of the day's bytes.
func TestPublishBatchDayAllocatesLittle(t *testing.T) {
	u := testUniverse(t)
	s, err := NewServer(ServerConfig{Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	day := testQuotes(u, 100_000, 0)
	dayBytes := uint64(len(day)) * uint64(unsafe.Sizeof(day[0]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.PublishBatch(day)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got*100 >= dayBytes {
		t.Fatalf("PublishBatch allocated %d B for a %d B day, want < 1 %%", got, dayBytes)
	}
	if st := s.Stats(); st.Quotes != len(day) || st.Batches != len(day)/256 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSubscribersReadWhilePublisherContinues: two subscribers read the
// log — much of it the publisher's own slices — while the mixed script
// keeps publishing, and both decode exactly the quotes published. Run
// under -race it also shows the server writes no memory a subscriber
// reads.
func TestSubscribersReadWhilePublisherContinues(t *testing.T) {
	u := testUniverse(t)
	for _, bs := range []int{64, 256} {
		s, err := NewServer(ServerConfig{Universe: u, BatchSize: bs, Heartbeat: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		subs := []<-chan []byte{subscriberBytes(t, s), subscriberBytes(t, s)}
		for s.Stats().Served < len(subs) {
			time.Sleep(time.Millisecond)
		}
		all, _ := serverScript(s, u, 11)
		for i, sub := range subs {
			dec := NewDecoder(bytes.NewReader(<-sub))
			var got []taq.Quote
			for {
				f, err := dec.Read()
				if err != nil {
					t.Fatalf("BS %d subscriber %d: %v", bs, i, err)
				}
				if b, ok := f.(*Batch); ok {
					got = append(got, b.Quotes...)
				}
				if _, ok := f.(*End); ok {
					break
				}
			}
			assertSameQuotes(t, got, all)
		}
		s.Close()
	}
}
