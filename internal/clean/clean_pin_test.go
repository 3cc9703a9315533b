package clean

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"marketminer/internal/market"
	"marketminer/internal/taq"
)

// pinnedCleanDigest is the digest of cleanDayDigest: every quote's
// Check and Accept reasons, the accepted and per-reason rejected
// counts, the final level estimates and the quotes Clean keeps. It
// moves if the filter classifies, counts or folds any quote
// differently.
const pinnedCleanDigest = "2ecb037ffc015ea8"

// dirtyDay is a generated six-stock day with bad ticks spliced in:
// price spikes, quotes from the past, zero-size, crossed and
// wide-spread quotes, and one stock whose level jumps 3% mid-day and
// stays there, which the filter must take as a level shift.
func dirtyDay(t *testing.T) []taq.Quote {
	t.Helper()
	u, err := taq.NewUniverse(taq.DefaultSymbols()[:6])
	if err != nil {
		t.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe, mc.Days, mc.Seed = u, 1, 17
	gen, err := market.NewGenerator(mc)
	if err != nil {
		t.Fatal(err)
	}
	day, err := gen.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	shifted := u.Symbol(2)
	var out []taq.Quote
	for i, q := range day.Quotes {
		if q.Symbol == shifted && i > len(day.Quotes)/2 {
			q.Bid *= 1.03
			q.Ask *= 1.03
		}
		out = append(out, q)
		bad := q
		switch r := rng.Float64(); {
		case r < 0.004: // spike
			bad.Bid *= 1.05
			bad.Ask *= 1.05
		case r < 0.006: // from the past
			bad.SeqTime -= 90
		case r < 0.007:
			bad.BidSize, bad.AskSize = 0, 0
		case r < 0.008:
			bad.Bid, bad.Ask = bad.Ask, bad.Bid-0.01
		case r < 0.009:
			bad.Ask = bad.Bid * 1.3
		default:
			continue
		}
		out = append(out, bad)
	}
	return out
}

// cleanDayDigest runs dirtyDay through an ordered filter, quote by
// quote, and through Clean, and digests both. It also counts the
// quotes the filter re-anchored on: a quote Check calls an outlier
// that Accept takes.
func cleanDayDigest(t *testing.T) (digest string, f *Filter, reanchors int) {
	quotes := dirtyDay(t)
	cfg := Config{Ordered: true}
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	f = NewFilter(cfg)
	for _, q := range quotes {
		checked := f.Check(q)
		got := f.Accept(q)
		if checked == Outlier && got == OK {
			reanchors++
		}
		put(uint64(checked), uint64(got))
	}
	put(uint64(f.Accepted()))
	for r := OK; r <= OutOfOrder; r++ {
		put(uint64(f.Rejected(r)))
	}
	for _, sym := range taq.DefaultSymbols()[:6] {
		mean, dev, ok := f.Level(sym)
		if !ok {
			t.Fatalf("no level for %s", sym)
		}
		put(math.Float64bits(mean), math.Float64bits(dev))
	}
	kept, cf := Clean(cfg, quotes)
	put(uint64(len(kept)), uint64(cf.Accepted()), uint64(cf.TotalRejected()))
	for _, q := range kept {
		h.Write([]byte(q.Symbol))
		put(math.Float64bits(q.SeqTime), math.Float64bits(q.Bid), math.Float64bits(q.Ask))
	}
	return fmt.Sprintf("%016x", h.Sum64()), f, reanchors
}

// TestCleanDayMatchesParentDigest pins the filter's decisions over a
// dirty day. The digest only means something if the day took every
// rejection path and the MaxRun re-anchor, so that is checked first.
func TestCleanDayMatchesParentDigest(t *testing.T) {
	got, f, reanchors := cleanDayDigest(t)
	for r := BadStructure; r <= OutOfOrder; r++ {
		if f.Rejected(r) == 0 {
			t.Errorf("no quote rejected as %v", r)
		}
	}
	if reanchors == 0 {
		t.Error("the level shift never re-anchored the filter")
	}
	if got != pinnedCleanDigest {
		t.Errorf("clean day digest = %s, want %s (accepted %d, rejected %d, %d re-anchors)",
			got, pinnedCleanDigest, f.Accepted(), f.TotalRejected(), reanchors)
	}
}
