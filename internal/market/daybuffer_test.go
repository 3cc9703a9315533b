package market

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"marketminer/internal/taq"
)

// dayHash digests every field of every quote of a day, in order.
func dayHash(quotes []taq.Quote) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, q := range quotes {
		u64(uint64(q.Day))
		u64(math.Float64bits(q.SeqTime))
		h.Write([]byte(q.Symbol))
		u64(math.Float64bits(q.Bid))
		u64(math.Float64bits(q.Ask))
		u64(uint64(q.BidSize))
		u64(uint64(q.AskSize))
	}
	return h.Sum64()
}

// dayBufferGolden holds dayHash of day 0 for seeds 1..20 (12 synthetic
// stocks, default liquidity tiering), recorded before the quote buffer
// was resized: sizing must not change a single generated byte.
var dayBufferGolden = [20]uint64{
	0xdfa7d211a62a2429, 0x3a4af0303afdb6f2, 0xa000d3b9f7b69cda, 0xc8522299190b069b,
	0xfd76b095a85d8a9b, 0xab991021f53a2d5d, 0x7c37ceb9d878ba82, 0xd3336dbe38eba921,
	0xe04af1bcb368d096, 0xd14c32a82a9241c1, 0x5dca3bec61d91525, 0x31d5f1eeb2683e56,
	0x856e3927a1159fd4, 0xe8e06536bb4f212e, 0xcb90e50bfc117d58, 0xaaead2446ace6ab5,
	0x39a00913ead8092, 0x2517602b78bd3654, 0xf18870d98bd2f389, 0x803ad29aab750839,
}

// The quote buffer is sized from the per-stock rates, so no seed's
// tiering makes the day outgrow it (the nominal n·QuoteRate·1.05 did on
// about three seeds in ten, doubling a 45 MB buffer mid-fill), and the
// generated day is what it was.
func TestGenerateDayBufferNeverRegrows(t *testing.T) {
	u, err := taq.NewUniverse(taq.SyntheticSymbols(12))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range dayBufferGolden {
		cfg := DefaultConfig()
		cfg.Universe, cfg.Seed, cfg.Days = u, int64(i+1), 1
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		day, err := g.GenerateDay(0)
		if err != nil {
			t.Fatal(err)
		}
		// The gather buffer is the one that must not regrow: every run
		// is a slice of the one quoteCapacity buffer, back to back.
		_, runs, err := g.gatherRuns(0)
		if err != nil {
			t.Fatal(err)
		}
		c, at := g.quoteCapacity(), 0
		for i, run := range runs {
			if cap(run) != c-at {
				t.Errorf("seed %d: buffer regrew by stock %d: run cap %d at offset %d, sized %d for %d quotes", cfg.Seed, i, cap(run), at, c, len(day.Quotes))
				break
			}
			at += len(run)
		}
		if got := dayHash(day.Quotes); got != want {
			t.Errorf("seed %d: day hash %#x, want %#x", cfg.Seed, got, want)
		}
	}
}

// GenerateByStock hands over each stock's quotes, in ascending time, in
// stock order; gathered and sorted they are GenerateDay's stream, and
// the day's mids and bad-tick count agree.
func TestGenerateByStockMatchesGenerateDay(t *testing.T) {
	u, err := taq.NewUniverse(taq.SyntheticSymbols(12))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Universe, cfg.Seed, cfg.Days, cfg.Contamination = u, seed, 1, 0.05
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.GenerateDay(0)
		if err != nil {
			t.Fatal(err)
		}
		bySym := map[string][]taq.Quote{}
		for _, q := range want.Quotes {
			bySym[q.Symbol] = append(bySym[q.Symbol], q)
		}
		next := 0
		got, err := g.GenerateByStock(0, func() []taq.Quote { return nil }, func(i int, quotes []taq.Quote) []taq.Quote {
			if i != next {
				t.Fatalf("seed %d: stock %d handed over, want %d", seed, i, next)
			}
			next++
			sub := bySym[u.Symbol(i)]
			if len(quotes) != len(sub) {
				t.Fatalf("seed %d stock %d: %d quotes, GenerateDay has %d", seed, i, len(quotes), len(sub))
			}
			for k, q := range quotes {
				if q != sub[k] {
					t.Fatalf("seed %d stock %d quote %d: %+v, GenerateDay has %+v", seed, i, k, q, sub[k])
				}
			}
			return quotes[:0]
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != u.Len() || got.NumBad != want.NumBad || got.Quotes != nil {
			t.Errorf("seed %d: %d stocks, %d bad (want %d), %d quotes kept", seed, next, got.NumBad, want.NumBad, len(got.Quotes))
		}
		for i := range want.Mid {
			for s := range want.Mid[i] {
				if got.Mid[i][s] != want.Mid[i][s] {
					t.Fatalf("seed %d: mid[%d][%d] %v, want %v", seed, i, s, got.Mid[i][s], want.Mid[i][s])
				}
			}
		}
	}
	g, _ := NewGenerator(smallConfig())
	none := func() []taq.Quote { return nil }
	if _, err := g.GenerateByStock(99, none, func(int, []taq.Quote) []taq.Quote { return nil }); err == nil {
		t.Error("day beyond dataset should error")
	}
}
