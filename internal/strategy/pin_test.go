package strategy

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"marketminer/internal/series"
)

// pinnedRunDayDigest is the FNV-64a digest of every Trade field that
// RunDay produced for pinCases before the level grid replaced its
// loop. The grid and the one-level RunDay must both reproduce it.
const pinnedRunDayDigest = "a4693e8150ce82f9"

// pinCase is one pair-day of the pinning corpus: a price grid, one
// correlation series and the parameter levels that read it.
type pinCase struct {
	pg           *series.PriceGrid
	corr         []float64
	firstS       int
	pairI, pairJ int
	day          int
	levels       []Params
}

// pinCases builds the seeded corpus. Levels vary every Params field
// (W ∈ {30, 60, 120}, RT ∈ {20, 60}, Y, D, L, HP, ST, A, StopLoss,
// CorrReversion); price grids carry NaN holes, so SpreadWindow errors
// and unpriceable exits occur; some series stop before the last
// interval (forced end-of-day close) and some are shorter than every
// level's W (RunDay must error).
func pinCases(t testing.TB) []pinCase {
	t.Helper()
	g, err := series.NewGrid(30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261017))
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	var cases []pinCase
	for ci := 0; ci < 48; ci++ {
		const stocks = 4
		prices := make([][]float64, stocks)
		for i := range prices {
			row := make([]float64, g.SMax)
			p := 20 + 15*float64(i) + 10*rng.Float64()
			for s := range row {
				p *= math.Exp(0.003 * rng.NormFloat64())
				row[s] = p
			}
			// NaN holes: a few short gaps, and sometimes a late first
			// quote.
			for h := rng.Intn(4); h > 0; h-- {
				at, n := rng.Intn(g.SMax), 1+rng.Intn(6)
				for s := at; s < at+n && s < g.SMax; s++ {
					row[s] = math.NaN()
				}
			}
			if rng.Intn(5) == 0 {
				for s := 0; s < 120+rng.Intn(60); s++ {
					row[s] = math.NaN()
				}
			}
			prices[i] = row
		}
		m := int(pick(50, 100, 200))
		n := g.SMax - m
		switch ci % 6 {
		case 4: // the series stops before the last interval
			n -= 20 + rng.Intn(300)
		case 5: // shorter than every W
			n = 1 + rng.Intn(29)
		}
		c := make([]float64, n)
		x := 0.0
		for i := range c {
			x = 0.92*x + 0.08*rng.NormFloat64()
			c[i] = math.Max(-1, math.Min(1, 0.5+x+0.02*rng.NormFloat64()))
		}
		pi := rng.Intn(stocks - 1)
		pj := pi + 1 + rng.Intn(stocks-1-pi)
		levels := make([]Params, 20)
		for li := range levels {
			p := DefaultParams()
			p.M = m
			p.W = int(pick(30, 60, 120))
			p.RT = int(pick(20, 60))
			p.Y = int(pick(5, 10, 20))
			p.D = pick(0.0001, 0.0005, 0.002)
			p.L = pick(1.0/3, 2.0/3)
			p.HP = int(pick(10, 30, 40))
			p.ST = int(pick(5, 20))
			p.A = pick(0.1, 0.3, 0.6)
			p.StopLoss = pick(0, 0, 0.003)
			p.CorrReversion = rng.Intn(3) == 0
			levels[li] = p
		}
		cases = append(cases, pinCase{
			pg: &series.PriceGrid{Grid: g, Prices: prices}, corr: c, firstS: m,
			pairI: pi, pairJ: pj, day: ci % 3, levels: levels,
		})
	}
	return cases
}

// digestLevel folds one level's outcome into h: an error marker, or
// the trade count and every field of every trade.
func digestLevel(h hash.Hash64, ci, li int, trades []Trade, err error) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(ci))
	put(uint64(li))
	if err != nil {
		put(math.MaxUint64)
		return
	}
	put(uint64(len(trades)))
	for _, tr := range trades {
		for _, v := range []int{tr.Day, tr.PairI, tr.PairJ, tr.EntryS, tr.ExitS,
			tr.LongStock, tr.ShortStock, tr.LongSh, tr.ShortSh, int(tr.Reason)} {
			put(uint64(v))
		}
		for _, v := range []float64{tr.LongEntry, tr.ShortEntry, tr.LongExit,
			tr.ShortExit, tr.PnL, tr.Return} {
			put(math.Float64bits(v))
		}
	}
}

// runDayDigest runs every level of every case alone through RunDay.
func runDayDigest(t *testing.T, cases []pinCase) (string, int) {
	h := fnv.New64a()
	total := 0
	for ci, c := range cases {
		for li, p := range c.levels {
			trades, err := RunDay(p, c.corr, c.firstS, c.pg, c.pairI, c.pairJ, c.day)
			digestLevel(h, ci, li, trades, err)
			total += len(trades)
		}
	}
	return hexSum(h), total
}

func hexSum(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

// gridDigest runs each case's levels together through one DayGrid.
// The grid first runs the case's series against the previous case's
// prices, so every digested run starts from trade buffers, C̄ buffers
// and spread memo entries another pair left behind, as a sweep
// worker's grid does.
func gridDigest(t *testing.T, cases []pinCase) string {
	h := fnv.New64a()
	for ci, c := range cases {
		g, err := NewDayGrid(c.levels)
		if err != nil {
			t.Fatal(err)
		}
		if ci > 0 {
			_ = g.Run(c.corr, c.firstS, cases[ci-1].pg, c.pairI, c.pairJ, c.day) // warm-up only: not digested
		}
		err = g.Run(c.corr, c.firstS, c.pg, c.pairI, c.pairJ, c.day)
		for li := range c.levels {
			var trades []Trade
			if err == nil {
				trades = g.Trades(li)
			}
			digestLevel(h, ci, li, trades, err)
		}
	}
	return hexSum(h)
}

func TestDayGridMatchesParentRunDay(t *testing.T) {
	cases := pinCases(t)
	got, trades := runDayDigest(t, cases)
	t.Logf("RunDay digest %s over %d trades", got, trades)
	if got != pinnedRunDayDigest {
		t.Errorf("RunDay digest = %s, want %s", got, pinnedRunDayDigest)
	}
	if got := gridDigest(t, cases); got != pinnedRunDayDigest {
		t.Errorf("DayGrid digest = %s, want %s", got, pinnedRunDayDigest)
	}
}

func TestDayGridSteadyStateAllocs(t *testing.T) {
	c := pinCases(t)[0]
	for _, row := range c.pg.Prices { // forward-fill the holes: a clean pair
		for s := range row {
			if math.IsNaN(row[s]) {
				row[s] = 50
				if s > 0 {
					row[s] = row[s-1]
				}
			}
		}
	}
	g, err := NewDayGrid(c.levels)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := g.Run(c.corr, c.firstS, c.pg, c.pairI, c.pairJ, c.day); err != nil {
			t.Fatal(err)
		}
	}
	run() // the warm pair sizes every buffer
	trades := 0
	for li := range c.levels {
		trades += len(g.Trades(li))
	}
	if trades == 0 {
		t.Fatal("the pair does not trade")
	}
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Errorf("DayGrid.Run allocates %v per pair after warm-up, want 0", a)
	}
}

// stepDigest drives one Tracker per level through Step, the online
// path's entry point, feeding it C̄ as a rolling W-sum, then closes any
// position left open at the day's last interval, as RunDay does.
func stepDigest(t *testing.T, cases []pinCase) string {
	h := fnv.New64a()
	for ci, c := range cases {
		lastS := c.pg.Grid.SMax - 1
		n := min(len(c.corr), lastS-c.firstS+1)
		for li, p := range c.levels {
			if len(c.corr) < p.W {
				digestLevel(h, ci, li, nil, errShortSeries)
				continue
			}
			tr, err := NewTracker(p, c.pairI, c.pairJ, c.day)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for k := 0; k < p.W-1; k++ {
				sum += c.corr[k]
			}
			for k := p.W - 1; k < n; k++ {
				sum += c.corr[k]
				tr.Step(c.firstS+k, c.corr[k], sum/float64(p.W), c.pg)
				sum -= c.corr[k-p.W+1]
			}
			if tr.Position() != nil {
				tr.closePosition(lastS, ExitEndOfDay, c.pg)
			}
			digestLevel(h, ci, li, tr.Trades(), nil)
		}
	}
	return hexSum(h)
}

// Step, which the online pipeline drives, makes the same trades as the
// level grid on the pinning corpus.
func TestStepMatchesParentDigest(t *testing.T) {
	if got := stepDigest(t, pinCases(t)); got != pinnedRunDayDigest {
		t.Errorf("Step digest = %s, want %s", got, pinnedRunDayDigest)
	}
}
