package portfolio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSideString(t *testing.T) {
	if Buy.String() != "buy" || Sell.String() != "sell" {
		t.Error("side names wrong")
	}
}

func TestShareRatioPaperExample(t *testing.T) {
	// §III step 4: buying MSFT at $30, selling IBM at $130 → 5:1,
	// i.e. $150 long vs $130 short.
	nIBM, nMSFT := ShareRatio(130, 30, false) // short IBM (i), long MSFT (j)
	if nIBM != 1 || nMSFT != 5 {
		t.Fatalf("ratio = %d:%d, want 1:5", nIBM, nMSFT)
	}
	long := float64(nMSFT) * 30
	short := float64(nIBM) * 130
	if long <= short {
		t.Errorf("allocation not slightly long: long=%v short=%v", long, short)
	}
}

func TestShareRatioCeilWhenShortCheap(t *testing.T) {
	// Long i (expensive), short j (cheap): x = floor(pi/pj) = floor(4.33) = 4.
	ni, nj := ShareRatio(130, 30, true)
	if ni != 1 || nj != 4 {
		t.Errorf("long-i ratio = %d:%d, want 1:4", ni, nj)
	}
	// 1·130 long vs 4·30=120 short: slightly long. Good.
	if 130.0 < 4*30.0 {
		t.Error("long side should dominate")
	}
}

func TestShareRatioFlipsWhenPiSmaller(t *testing.T) {
	// pi < pj: the rule normalises by flipping the pair.
	ni, nj := ShareRatio(30, 130, true) // long i (cheap)
	// Equivalent to ShareRatio(130,30,false) = (1,5) then swapped.
	if nj != 1 || ni != 5 {
		t.Errorf("flipped ratio = %d:%d, want 5:1", ni, nj)
	}
}

func TestShareRatioNearEqualPrices(t *testing.T) {
	ni, nj := ShareRatio(50, 50, true)
	if ni != 1 || nj != 1 {
		t.Errorf("equal prices ratio = %d:%d, want 1:1", ni, nj)
	}
}

func TestShareRatioPanicsOnBadPrice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive price")
		}
	}()
	ShareRatio(0, 10, true)
}

// Property: the long notional is always ≥ the short notional ("as
// close to cash-neutral as possible, but just slightly on the long
// side"), and never more than one share-unit above it.
func TestShareRatioSlightlyLongProperty(t *testing.T) {
	f := func(piRaw, pjRaw uint16, longI bool) bool {
		pi := 1 + float64(piRaw%50000)/100
		pj := 1 + float64(pjRaw%50000)/100
		ni, nj := ShareRatio(pi, pj, longI)
		if ni < 1 || nj < 1 {
			return false
		}
		var long, short float64
		if longI {
			long, short = float64(ni)*pi, float64(nj)*pj
		} else {
			long, short = float64(nj)*pj, float64(ni)*pi
		}
		if long < short {
			return false
		}
		// The imbalance is bounded by one unit of the cheaper stock.
		cheap := math.Min(pi, pj)
		return long-short <= cheap+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPairPositionAccounting(t *testing.T) {
	// Paper's step-6 example: long 5 MSFT @ $30, short 1 IBM @ $130;
	// exit MSFT $29, IBM $120 → PnL = -5 + 10 = 5; gross = 280.
	pos := &PairPosition{
		LongStock: 0, ShortStock: 1,
		LongSh: 5, ShortSh: 1,
		LongPx: 30, ShortPx: 130,
	}
	if g := pos.GrossEntry(); g != 280 {
		t.Errorf("GrossEntry = %v, want 280", g)
	}
	if n := pos.NetEntry(); n != 20 {
		t.Errorf("NetEntry = %v, want 20", n)
	}
	if p := pos.PnL(29, 120); p != 5 {
		t.Errorf("PnL = %v, want 5", p)
	}
	want := 5.0 / 280.0
	if r := pos.Return(29, 120); math.Abs(r-want) > 1e-12 {
		t.Errorf("Return = %v, want %v", r, want)
	}
}

func TestPairPositionZeroGross(t *testing.T) {
	pos := &PairPosition{}
	if pos.Return(10, 10) != 0 {
		t.Error("zero-gross position should return 0")
	}
}

func TestOrderNotional(t *testing.T) {
	o := Order{Shares: 7, Price: 12.5}
	if o.Notional() != 87.5 {
		t.Errorf("Notional = %v", o.Notional())
	}
}

func TestBookRoundTrip(t *testing.T) {
	b := NewBook()
	orders := []Order{
		{Stock: 0, Side: Buy, Shares: 5, Price: 30},
		{Stock: 1, Side: Sell, Shares: 1, Price: 130},
		{Stock: 0, Side: Sell, Shares: 5, Price: 29},
		{Stock: 1, Side: Buy, Shares: 1, Price: 120},
	}
	for _, o := range orders {
		if err := b.Apply(o); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Flat() {
		t.Error("book should be flat after round trip")
	}
	if pnl := b.CashPnL(); math.Abs(pnl-5) > 1e-12 {
		t.Errorf("CashPnL = %v, want 5", pnl)
	}
	if b.GrossExposure() != 0 {
		t.Errorf("flat book gross = %v", b.GrossExposure())
	}
}

func TestBookOpenExposure(t *testing.T) {
	b := NewBook()
	b.Apply(Order{Stock: 3, Side: Buy, Shares: 10, Price: 20})
	if b.Flat() {
		t.Error("book with net shares reported flat")
	}
	if b.NetShares(3) != 10 {
		t.Errorf("NetShares = %d", b.NetShares(3))
	}
	if b.GrossExposure() != 200 {
		t.Errorf("GrossExposure = %v", b.GrossExposure())
	}
}

func TestBookRejectsBadOrders(t *testing.T) {
	b := NewBook()
	if err := b.Apply(Order{Shares: 0, Price: 10}); err != ErrBadOrder {
		t.Error("zero shares should be rejected")
	}
	if err := b.Apply(Order{Shares: 1, Price: 0}); err != ErrBadOrder {
		t.Error("zero price should be rejected")
	}
}

func TestCostModelZeroIsFrictionless(t *testing.T) {
	var c CostModel
	if !c.Zero() {
		t.Error("zero model should be frictionless")
	}
	pos := &PairPosition{LongSh: 5, ShortSh: 1, LongPx: 30, ShortPx: 130}
	gross := pos.Return(29, 120)
	if net := c.NetReturn(pos, 29, 120, 2.5); net != gross {
		t.Errorf("zero-cost net %v != gross %v", net, gross)
	}
}

func TestCostModelValidate(t *testing.T) {
	if err := (CostModel{Commission: -1}).Validate(); err == nil {
		t.Error("negative commission should fail")
	}
	if err := (CostModel{Commission: 0.01, SpreadCross: 1, ImpactCoeff: 1e-7}).Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestCostModelLegCost(t *testing.T) {
	c := CostModel{Commission: 0.01, SpreadCross: 1, ImpactCoeff: 0}
	// 100 shares at $50, half-spread $0.02: 100·0.01 + 100·0.02 = $3.
	if got := c.LegCost(100, 50, 0.02); math.Abs(got-3) > 1e-12 {
		t.Errorf("LegCost = %v, want 3", got)
	}
	// Impact is quadratic in shares (linear impact × shares).
	ci := CostModel{ImpactCoeff: 1e-6}
	if got := ci.LegCost(100, 50, 0); math.Abs(got-1e-6*100*100*50) > 1e-12 {
		t.Errorf("impact LegCost = %v", got)
	}
}

func TestCostModelReducesReturn(t *testing.T) {
	pos := &PairPosition{LongSh: 5, ShortSh: 1, LongPx: 30, ShortPx: 130}
	c := CostModel{Commission: 0.01, SpreadCross: 1}
	gross := pos.Return(29, 120)
	net := c.NetReturn(pos, 29, 120, 2.5)
	if net >= gross {
		t.Errorf("net %v should be below gross %v", net, gross)
	}
}

func TestCostModelZeroGrossGuard(t *testing.T) {
	var pos PairPosition
	c := CostModel{Commission: 1}
	if c.NetReturn(&pos, 1, 1, 2.5) != 0 {
		t.Error("zero-gross position should cost 0")
	}
}
