package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestCompound(t *testing.T) {
	approx(t, Compound([]float64{0.1, 0.1}), 0.21, 1e-12, "Compound")
	approx(t, Compound([]float64{0.5, -0.5}), -0.25, 1e-12, "Compound mixed")
	if Compound(nil) != 0 {
		t.Error("empty compound should be 0")
	}
	approx(t, Compound([]float64{-1}), -1, 1e-12, "total loss")
}

func TestDailyAndTotalCumulative(t *testing.T) {
	// Two days of trades: day 1 = +1%, +2%; day 2 = -1%.
	d1 := DailyCumulative([]float64{0.01, 0.02})
	approx(t, d1, 1.01*1.02-1, 1e-12, "day1")
	d2 := DailyCumulative([]float64{-0.01})
	total := TotalCumulative([]float64{d1, d2})
	approx(t, total, 1.01*1.02*0.99-1, 1e-12, "total")
}

func TestEquityCurve(t *testing.T) {
	curve := EquityCurve([]float64{0.1, -0.5, 1.0})
	want := []float64{0.1, 1.1*0.5 - 1, 1.1*0.5*2 - 1}
	if len(curve) != 3 {
		t.Fatalf("len = %d", len(curve))
	}
	for i := range want {
		approx(t, curve[i], want[i], 1e-12, "curve point")
	}
	if EquityCurve(nil) != nil && len(EquityCurve(nil)) != 0 {
		t.Error("empty curve should be empty")
	}
}

func TestMaxDrawdownKnown(t *testing.T) {
	// Equity: +10%, then -20% trade (curve 0.10 → -0.12): drop 0.22.
	mdd := MaxDrawdown([]float64{0.10, -0.20})
	approx(t, mdd, 0.22, 1e-12, "MDD")
}

func TestMaxDrawdownMonotone(t *testing.T) {
	if MaxDrawdown([]float64{0.01, 0.02, 0.03}) != 0 {
		t.Error("rising equity should have 0 drawdown")
	}
	if MaxDrawdown([]float64{0.05}) != 0 {
		t.Error("single return should have 0 drawdown")
	}
	if MaxDrawdown(nil) != 0 {
		t.Error("empty should be 0")
	}
}

func TestMaxDrawdownPeakTracking(t *testing.T) {
	// Peak after a recovery must be tracked: 0.1, -0.05, +0.3, -0.2.
	rets := []float64{0.1, -0.05, 0.3, -0.2}
	curve := EquityCurve(rets)
	want := curve[2] - curve[3]
	approx(t, MaxDrawdown(rets), want, 1e-12, "post-recovery MDD")
}

func TestWinLossCounts(t *testing.T) {
	w, l := WinLossCounts([]float64{0.1, -0.1, 0, 0.2, -0.3, 0.4})
	if w != 3 || l != 2 {
		t.Errorf("W/L = %d/%d, want 3/2", w, l)
	}
}

func TestWinLossRatio(t *testing.T) {
	approx(t, WinLossRatio([]float64{0.1, -0.1, 0.2}), 2, 1e-12, "ratio")
	if !math.IsInf(WinLossRatio([]float64{0.1, 0.2}), 1) {
		t.Error("no losses should give +Inf")
	}
	if WinLossRatio([]float64{-0.1}) != 0 {
		t.Error("no wins should give 0")
	}
	if WinLossRatio(nil) != 0 {
		t.Error("empty should give 0")
	}
	if WinLossRatio([]float64{0, 0}) != 0 {
		t.Error("zero returns count as neither win nor loss")
	}
}

func TestPairParamSeries(t *testing.T) {
	s := &PairParamSeries{Daily: [][]float64{
		{0.01, 0.02},
		{},
		{-0.01},
	}}
	if s.NumTrades() != 3 {
		t.Errorf("NumTrades = %d", s.NumTrades())
	}
	flat := s.Flat()
	if len(flat) != 3 || flat[2] != -0.01 {
		t.Errorf("Flat = %v", flat)
	}
	dc := s.DailyCumulatives()
	if len(dc) != 3 || dc[1] != 0 {
		t.Errorf("DailyCumulatives = %v", dc)
	}
	approx(t, s.TotalCumulative(), 1.01*1.02*0.99-1, 1e-12, "TotalCumulative")
	if s.WinLossRatio() != 2 {
		t.Errorf("WinLossRatio = %v", s.WinLossRatio())
	}
	if s.MaxDailyDrawdown() <= 0 {
		t.Error("losing final day should produce positive daily MDD")
	}
}

// Property: MDD is always in [0, peak−valley bound] and equals 0 iff
// the equity curve never falls below a previous peak.
func TestMaxDrawdownProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		rets := make([]float64, n)
		for i := range rets {
			rets[i] = rng.NormFloat64() * 0.02
		}
		mdd := MaxDrawdown(rets)
		if mdd < 0 {
			return false
		}
		// Brute-force reference: max over all qa ≤ qb pairs.
		curve := EquityCurve(rets)
		var ref float64
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				if d := curve[a] - curve[b]; d > ref {
					ref = d
				}
			}
		}
		return math.Abs(mdd-ref) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: compounding is order-sensitive only through products, so
// any permutation gives the same total (multiplication commutes).
func TestCompoundPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		rets := make([]float64, n)
		for i := range rets {
			rets[i] = rng.NormFloat64() * 0.05
		}
		c1 := Compound(rets)
		perm := rng.Perm(n)
		shuffled := make([]float64, n)
		for i, p := range perm {
			shuffled[i] = rets[p]
		}
		return math.Abs(c1-Compound(shuffled)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
