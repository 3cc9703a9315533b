package series

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"marketminer/internal/taq"
)

// randomStockQuotes draws one stock's quotes in ascending time: bursts
// inside one interval and inside one second, repeated timestamps, long
// gaps, and sometimes a late first quote or no quote at all.
func randomStockQuotes(rng *rand.Rand, sym string) []taq.Quote {
	var qs []taq.Quote
	if rng.Intn(8) == 0 {
		return nil
	}
	t := 0.0
	if rng.Intn(4) == 0 {
		t = float64(rng.Intn(taq.TradingDaySec / 2))
	}
	for {
		switch rng.Intn(5) {
		case 0: // same second
			t += (math.Floor(t) + 1 - t) * rng.Float64()
		case 1: // same timestamp
		case 2: // same 30 s interval, most likely
			t += 10 * rng.Float64()
		case 3: // the next whole second, which other stocks share
			t = math.Floor(t) + 1
		default: // a gap of up to a quarter hour
			t += 900 * rng.ExpFloat64()
		}
		if t >= taq.TradingDaySec {
			return qs
		}
		mid := 20 + 10*rng.Float64()
		qs = append(qs, taq.Quote{SeqTime: t, Symbol: sym, Bid: mid - 0.01, Ask: mid + 0.01})
	}
}

// lastMidRow is the sampling rule by its definition: interval s holds
// the BAM of the last quote whose interval is s or earlier.
func lastMidRow(g Grid, qs []taq.Quote) []float64 {
	row := make([]float64, g.SMax)
	for s := range row {
		row[s] = math.NaN()
		for _, q := range qs {
			if int(q.SeqTime)/g.DeltaS <= s {
				row[s] = q.Mid()
			}
		}
	}
	return row
}

// Sampler over a globally time-sorted stream and RowSampler fed each
// stock's sub-stream on its own produce the same rows, bit for bit, and
// both match the rule's definition.
func TestSamplerMatchesPerStockRows(t *testing.T) {
	g := mustGrid(t, 30)
	syms := taq.SyntheticSymbols(24)
	u, err := taq.NewUniverse(syms)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perStock := make([][]taq.Quote, len(syms))
		var stream []taq.Quote
		for i, sym := range syms {
			perStock[i] = randomStockQuotes(rng, sym)
			stream = append(stream, perStock[i]...)
		}
		// Stable: equal timestamps keep each stock's own order.
		sort.SliceStable(stream, func(a, b int) bool { return stream[a].SeqTime < stream[b].SeqTime })
		sm := NewSampler(g, u)
		for _, q := range stream {
			if !sm.Add(q) {
				t.Fatalf("seed %d: Sampler rejected %+v", seed, q)
			}
		}
		pg := sm.Finish()
		for i, qs := range perStock {
			rs := NewRowSampler(g, make([]float64, g.SMax))
			for _, q := range qs {
				rs.Add(q)
			}
			row, want := rs.Finish(), lastMidRow(g, qs)
			for s := range row {
				if math.Float64bits(row[s]) != math.Float64bits(pg.Prices[i][s]) {
					t.Fatalf("seed %d stock %d interval %d: per-stock %v, stream %v", seed, i, s, row[s], pg.Prices[i][s])
				}
				if math.Float64bits(row[s]) != math.Float64bits(want[s]) {
					t.Fatalf("seed %d stock %d interval %d: per-stock %v, definition %v", seed, i, s, row[s], want[s])
				}
			}
		}
	}
}
