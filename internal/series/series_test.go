package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"marketminer/internal/taq"
)

func mustGrid(t *testing.T, deltaS int) Grid {
	t.Helper()
	g, err := NewGrid(deltaS)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridPaperExample(t *testing.T) {
	g := mustGrid(t, 30)
	if g.SMax != 780 {
		t.Fatalf("SMax = %d, want 780 (paper: 23400/30)", g.SMax)
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(0); err == nil {
		t.Error("∆s=0 should error")
	}
	if _, err := NewGrid(-5); err == nil {
		t.Error("negative ∆s should error")
	}
	if _, err := NewGrid(7); err == nil {
		t.Error("non-dividing ∆s should error")
	}
}

func TestGridIndex(t *testing.T) {
	g := mustGrid(t, 30)
	cases := []struct {
		t    float64
		want int
		ok   bool
	}{
		{0, 0, true},
		{29.9, 0, true},
		{30, 1, true},
		{23399, 779, true},
		{23400, 0, false},
		{-1, 0, false},
	}
	for _, c := range cases {
		got, ok := g.Index(c.t)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Index(%v) = %d,%v want %d,%v", c.t, got, ok, c.want, c.ok)
		}
	}
}

func smallUniverse(t *testing.T) *taq.Universe {
	t.Helper()
	u, err := taq.NewUniverse([]string{"AA", "BB"})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSamplerForwardFill(t *testing.T) {
	g := mustGrid(t, 30)
	u := smallUniverse(t)
	sm := NewSampler(g, u)
	// AA quotes in interval 0 and 2; BB only in interval 0.
	if !sm.Add(taq.Quote{SeqTime: 5, Symbol: "AA", Bid: 10, Ask: 10.2}) {
		t.Fatal("Add rejected valid quote")
	}
	sm.Add(taq.Quote{SeqTime: 12, Symbol: "BB", Bid: 20, Ask: 20.2})
	sm.Add(taq.Quote{SeqTime: 65, Symbol: "AA", Bid: 11, Ask: 11.2})
	pg := sm.Finish()
	if got := pg.Price(0, 0); got != 10.1 {
		t.Errorf("AA interval0 = %v, want 10.1", got)
	}
	if got := pg.Price(0, 1); got != 10.1 {
		t.Errorf("AA interval1 (forward fill) = %v, want 10.1", got)
	}
	if got := pg.Price(0, 2); got != 11.1 {
		t.Errorf("AA interval2 = %v, want 11.1", got)
	}
	// BB forward-filled to the end of day.
	if got := pg.Price(1, 779); got != 20.1 {
		t.Errorf("BB last interval = %v, want 20.1", got)
	}
	if fc := pg.FirstComplete(); fc != 0 {
		t.Errorf("FirstComplete = %d, want 0", fc)
	}
}

func TestSamplerLeadingNaN(t *testing.T) {
	g := mustGrid(t, 30)
	u := smallUniverse(t)
	sm := NewSampler(g, u)
	// BB's first quote arrives in interval 3.
	sm.Add(taq.Quote{SeqTime: 1, Symbol: "AA", Bid: 10, Ask: 10.2})
	sm.Add(taq.Quote{SeqTime: 95, Symbol: "BB", Bid: 20, Ask: 20.2})
	pg := sm.Finish()
	if !math.IsNaN(pg.Price(1, 0)) || !math.IsNaN(pg.Price(1, 2)) {
		t.Error("BB should be NaN before its first quote")
	}
	if fc := pg.FirstComplete(); fc != 3 {
		t.Errorf("FirstComplete = %d, want 3", fc)
	}
}

func TestSamplerRejects(t *testing.T) {
	g := mustGrid(t, 30)
	u := smallUniverse(t)
	sm := NewSampler(g, u)
	if sm.Add(taq.Quote{SeqTime: -3, Symbol: "AA", Bid: 1, Ask: 2}) {
		t.Error("out-of-session quote accepted")
	}
	if sm.Add(taq.Quote{SeqTime: 5, Symbol: "ZZ", Bid: 1, Ask: 2}) {
		t.Error("unknown-symbol quote accepted")
	}
}

func TestSamplerEmptyDay(t *testing.T) {
	g := mustGrid(t, 30)
	u := smallUniverse(t)
	pg := NewSampler(g, u).Finish()
	if fc := pg.FirstComplete(); fc != -1 {
		t.Errorf("FirstComplete on empty day = %d, want -1", fc)
	}
}

func TestLogReturns(t *testing.T) {
	prices := []float64{100, 110, 99}
	rs := LogReturns(prices)
	if len(rs) != 2 {
		t.Fatalf("len = %d", len(rs))
	}
	if math.Abs(rs[0]-math.Log(1.1)) > 1e-12 {
		t.Errorf("rs[0] = %v", rs[0])
	}
	if math.Abs(rs[1]-math.Log(0.9)) > 1e-12 {
		t.Errorf("rs[1] = %v", rs[1])
	}
	if LogReturns([]float64{5}) != nil {
		t.Error("single price should give nil returns")
	}
}

func TestReturnGridShape(t *testing.T) {
	g := mustGrid(t, 30)
	pg := &PriceGrid{Grid: g, Prices: [][]float64{make([]float64, g.SMax), make([]float64, g.SMax)}}
	for i := range pg.Prices {
		for s := range pg.Prices[i] {
			pg.Prices[i][s] = 100 + float64(s)
		}
	}
	rg := ReturnGrid(pg)
	if len(rg) != 2 || len(rg[0]) != g.SMax-1 {
		t.Fatalf("ReturnGrid shape = %dx%d", len(rg), len(rg[0]))
	}
	if rg[0][0] <= 0 {
		t.Error("rising prices should give positive log-return")
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.Full() {
		t.Fatal("fresh window state wrong")
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 || w.At(0) != 1 || w.At(1) != 2 {
		t.Errorf("partial window: len=%d at0=%v at1=%v", w.Len(), w.At(0), w.At(1))
	}
	w.Push(3)
	w.Push(4) // evicts 1
	if !w.Full() || w.Len() != 3 {
		t.Error("window should be full with 3 elements")
	}
	if w.At(0) != 2 || w.At(1) != 3 || w.At(2) != 4 {
		t.Errorf("At = %v,%v,%v", w.At(0), w.At(1), w.At(2))
	}
}

func TestWindowCapClamp(t *testing.T) {
	w := NewWindow(0)
	w.Push(1)
	w.Push(2)
	if w.Len() != 1 || w.At(0) != 2 {
		t.Errorf("clamped window: len=%d at0=%v", w.Len(), w.At(0))
	}
}

func TestWindowOrderProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		m := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		w := NewWindow(m)
		var ref []float64
		for k := 0; k < 100; k++ {
			x := rng.Float64()
			w.Push(x)
			ref = append(ref, x)
			if len(ref) > m {
				ref = ref[1:]
			}
			if w.Len() != len(ref) {
				return false
			}
			for i := range ref {
				if w.At(i) != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// closedBars flushes ba through the session close and returns its
// gapless bar series (nil if no quote was ever added).
func closedBars(ba *BarAccumulator) []Bar {
	if !ba.started {
		return nil
	}
	ba.flushThrough(ba.grid.SMax)
	return ba.out
}

func TestBarAccumulator(t *testing.T) {
	g := mustGrid(t, 30)
	ba := NewBarAccumulator(g, "AA", 2)
	quotes := []taq.Quote{
		{SeqTime: 1, Symbol: "AA", Bid: 10, Ask: 10.2},  // mid 10.1
		{SeqTime: 10, Symbol: "AA", Bid: 11, Ask: 11.2}, // mid 11.1
		{SeqTime: 20, Symbol: "AA", Bid: 9, Ask: 9.2},   // mid 9.1
		{SeqTime: 70, Symbol: "AA", Bid: 12, Ask: 12.2}, // interval 2, mid 12.1
	}
	for _, q := range quotes {
		if !ba.Add(q) {
			t.Fatalf("Add rejected %+v", q)
		}
	}
	if ba.Add(taq.Quote{SeqTime: 80, Symbol: "BB", Bid: 1, Ask: 2}) {
		t.Error("foreign symbol accepted")
	}
	bars := closedBars(ba)
	if len(bars) != g.SMax {
		t.Fatalf("bars = %d, want %d (gapless)", len(bars), g.SMax)
	}
	b0 := bars[0]
	if b0.Open != 10.1 || b0.High != 11.1 || b0.Low != 9.1 || b0.Close != 9.1 || b0.Count != 3 {
		t.Errorf("bar0 = %+v", b0)
	}
	if b0.Day != 2 || b0.Symbol != "AA" || b0.Interval != 0 {
		t.Errorf("bar0 metadata = %+v", b0)
	}
	// Interval 1 is synthetic: flat at previous close.
	b1 := bars[1]
	if b1.Count != 0 || b1.Open != 9.1 || b1.Close != 9.1 || b1.High != 9.1 || b1.Low != 9.1 {
		t.Errorf("synthetic bar1 = %+v", b1)
	}
	if bars[2].Open != 12.1 || bars[2].Count != 1 {
		t.Errorf("bar2 = %+v", bars[2])
	}
	// Tail is forward-filled to the close.
	if bars[g.SMax-1].Close != 12.1 {
		t.Errorf("last bar = %+v", bars[g.SMax-1])
	}
}

func TestBarOHLCInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := NewGrid(60)
		ba := NewBarAccumulator(g, "AA", 0)
		tsec := 0.0
		for k := 0; k < 200; k++ {
			tsec += rng.Float64() * 120
			if tsec >= 23400 {
				break
			}
			bid := 50 + rng.NormFloat64()
			ba.Add(taq.Quote{SeqTime: tsec, Symbol: "AA", Bid: bid, Ask: bid + 0.02})
		}
		for _, b := range closedBars(ba) {
			if b.Low > b.Open || b.Low > b.Close || b.High < b.Open || b.High < b.Close {
				return false
			}
			if b.Low > b.High {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpreadWindow(t *testing.T) {
	g := mustGrid(t, 30)
	n := g.SMax
	pi := make([]float64, n)
	pj := make([]float64, n)
	for s := 0; s < n; s++ {
		pi[s] = 100 + float64(s%5) // 100..104 cycling
		pj[s] = 90
	}
	pg := &PriceGrid{Grid: g, Prices: [][]float64{pi, pj}}
	st, err := SpreadWindow(pg, 0, 1, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Intervals 5..9 → pi = 100..104, spreads 10..14.
	if st.Low != 10 || st.High != 14 || st.Avg != 12 {
		t.Errorf("SpreadStats = %+v", st)
	}
}

func TestSpreadWindowErrors(t *testing.T) {
	g := mustGrid(t, 30)
	pg := &PriceGrid{Grid: g, Prices: [][]float64{make([]float64, g.SMax), make([]float64, g.SMax)}}
	if _, err := SpreadWindow(pg, 0, 1, 3, 10); err == nil {
		t.Error("window reaching before day start should error")
	}
	if _, err := SpreadWindow(pg, 0, 1, 5, 0); err == nil {
		t.Error("rt=0 should error")
	}
	pg.Prices[0][5] = math.NaN()
	if _, err := SpreadWindow(pg, 0, 1, 6, 3); err == nil {
		t.Error("NaN spread should error")
	}
}

func TestPeriodReturn(t *testing.T) {
	g := mustGrid(t, 30)
	prices := make([]float64, g.SMax)
	for s := range prices {
		prices[s] = 100 * math.Pow(1.001, float64(s))
	}
	pg := &PriceGrid{Grid: g, Prices: [][]float64{prices}}
	r := PeriodReturn(pg, 0, 60, 60)
	want := math.Pow(1.001, 60) - 1
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("PeriodReturn = %v, want %v", r, want)
	}
	if !math.IsNaN(PeriodReturn(pg, 0, 10, 60)) {
		t.Error("window before day start should be NaN")
	}
}

func TestBackfill(t *testing.T) {
	g := mustGrid(t, 30)
	u := smallUniverse(t)
	sm := NewSampler(g, u)
	sm.Add(taq.Quote{SeqTime: 1, Symbol: "AA", Bid: 10, Ask: 10.2})
	sm.Add(taq.Quote{SeqTime: 95, Symbol: "BB", Bid: 20, Ask: 20.2}) // interval 3
	pg := sm.Finish()
	if err := Backfill(pg); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if pg.Price(1, s) != 20.1 {
			t.Errorf("BB interval %d = %v, want backfilled 20.1", s, pg.Price(1, s))
		}
	}
	if pg.FirstComplete() != 0 {
		t.Errorf("FirstComplete = %d after backfill", pg.FirstComplete())
	}
}

func TestBackfillErrorsOnEmptyStock(t *testing.T) {
	g := mustGrid(t, 30)
	u := smallUniverse(t)
	sm := NewSampler(g, u)
	sm.Add(taq.Quote{SeqTime: 1, Symbol: "AA", Bid: 10, Ask: 10.2})
	pg := sm.Finish()
	if err := Backfill(pg); err == nil {
		t.Error("stock with no quotes should error")
	}
}
