package corr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// bivariate generates n samples with target correlation rho.
func bivariate(rng *rand.Rand, n int, rho float64) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	c := math.Sqrt(1 - rho*rho)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		x[i] = a
		y[i] = rho*a + c*b
	}
	return x, y
}

func TestTypeStringAndParse(t *testing.T) {
	for _, ty := range Types() {
		parsed, err := ParseType(ty.String())
		if err != nil || parsed != ty {
			t.Errorf("round trip of %v failed: %v %v", ty, parsed, err)
		}
	}
	if _, err := ParseType("spearman"); err == nil {
		t.Error("unknown type should error")
	}
	if s := Type(42).String(); s != "Type(42)" {
		t.Errorf("unknown String = %q", s)
	}
	if ty, err := ParseType("  PEARSON "); err != nil || ty != Pearson {
		t.Errorf("case/space-insensitive parse failed: %v %v", ty, err)
	}
}

func TestPearsonExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	// y perfectly linear in x → correlation 1; negated → -1.
	y := []float64{2, 4, 6, 8, 10}
	approx(t, PearsonCorr(x, y), 1, 1e-12, "Pearson(+linear)")
	yn := []float64{-2, -4, -6, -8, -10}
	approx(t, PearsonCorr(x, yn), -1, 1e-12, "Pearson(-linear)")
}

func TestPearsonKnownValue(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 3, 2, 4}
	// Hand-computed: cov = 2.5/4... use reference value 0.8.
	approx(t, PearsonCorr(x, y), 0.8, 1e-12, "Pearson(known)")
}

func TestPearsonDegenerate(t *testing.T) {
	if PearsonCorr(nil, nil) != 0 {
		t.Error("empty input should give 0")
	}
	if PearsonCorr([]float64{1, 2}, []float64{1}) != 0 {
		t.Error("length mismatch should give 0")
	}
	if PearsonCorr([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Error("constant series should give 0")
	}
}

func TestPearsonRecoversRho(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rho := range []float64{-0.8, -0.3, 0, 0.5, 0.9} {
		x, y := bivariate(rng, 20000, rho)
		approx(t, PearsonCorr(x, y), rho, 0.03, "Pearson recovery")
	}
}

func TestWeightedPearsonUniformMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := bivariate(rng, 500, 0.6)
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 0.7
	}
	approx(t, WeightedPearson(x, y, w), PearsonCorr(x, y), 1e-9, "WeightedPearson(uniform)")
}

func TestWeightedPearsonZeroWeightDropsOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := bivariate(rng, 300, 0.9)
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 1
	}
	// Poison one observation, then zero-weight it: must match the
	// unpoisoned estimate on the remaining data.
	cleanC := PearsonCorr(x[1:], y[1:])
	x[0], y[0] = 100, -100
	w[0] = 0
	approx(t, WeightedPearson(x, y, w), cleanC, 1e-9, "WeightedPearson(drop)")
}

func TestWeightedPearsonDegenerate(t *testing.T) {
	if WeightedPearson([]float64{1, 2}, []float64{1, 2}, []float64{0, 0}) != 0 {
		t.Error("all-zero weights should give 0")
	}
	if WeightedPearson([]float64{1}, []float64{1, 2}, []float64{1}) != 0 {
		t.Error("length mismatch should give 0")
	}
}

func TestMaronnaAgreesWithPearsonOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	est := NewMaronnaEstimator(DefaultMaronnaConfig())
	for _, rho := range []float64{-0.7, 0, 0.4, 0.85} {
		x, y := bivariate(rng, 3000, rho)
		mc := est.Corr(x, y)
		pc := PearsonCorr(x, y)
		approx(t, mc, pc, 0.05, "Maronna vs Pearson clean")
	}
}

func TestMaronnaRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := bivariate(rng, 400, 0.9)
	// Contaminate 5% of points with gross anti-correlated outliers.
	for i := 0; i < 20; i++ {
		k := rng.Intn(len(x))
		x[k] = 15
		y[k] = -15
	}
	pc := PearsonCorr(x, y)
	mc := NewMaronnaEstimator(DefaultMaronnaConfig()).Corr(x, y)
	if mc <= pc+0.1 {
		t.Errorf("Maronna (%v) should resist outliers better than Pearson (%v)", mc, pc)
	}
	if mc < 0.7 {
		t.Errorf("Maronna = %v, want near the true 0.9 despite contamination", mc)
	}
}

func TestMaronnaDegenerate(t *testing.T) {
	est := NewMaronnaEstimator(DefaultMaronnaConfig())
	if est.Corr([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4}) != 0 {
		t.Error("constant series should give 0")
	}
	if est.Corr(nil, nil) != 0 {
		t.Error("empty should give 0")
	}
	if est.Corr([]float64{1, 2}, []float64{5}) != 0 {
		t.Error("mismatch should give 0")
	}
}

func TestMaronnaPerfectCorrelation(t *testing.T) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	rng := rand.New(rand.NewSource(6))
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2 * x[i]
	}
	c := NewMaronnaEstimator(DefaultMaronnaConfig()).Corr(x, y)
	if c < 0.99 {
		t.Errorf("Maronna of perfectly dependent data = %v, want ≈1", c)
	}
}

func TestMaronnaConfigSanitized(t *testing.T) {
	est := NewMaronnaEstimator(MaronnaConfig{})
	rng := rand.New(rand.NewSource(7))
	x, y := bivariate(rng, 200, 0.5)
	c := est.Corr(x, y)
	if c < 0.2 || c > 0.8 {
		t.Errorf("sanitized-config Maronna = %v, want near 0.5", c)
	}
}

func TestMaronnaScratchReuse(t *testing.T) {
	est := NewMaronnaEstimator(DefaultMaronnaConfig())
	rng := rand.New(rand.NewSource(8))
	x, y := bivariate(rng, 150, 0.6)
	c1, sc := est.CorrScratch(x, y, nil)
	c2, _ := est.CorrScratch(x, y, sc)
	if c1 != c2 {
		t.Errorf("scratch reuse changed result: %v vs %v", c1, c2)
	}
	if len(sc.Weights()) != len(x) {
		t.Errorf("weights length = %d", len(sc.Weights()))
	}
	for _, w := range sc.Weights() {
		if w < 0 || w > 1 {
			t.Errorf("weight %v outside [0,1]", w)
		}
	}
}

func TestCombinedBetweenHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := bivariate(rng, 500, 0.7)
	c := NewCombinedEstimator(DefaultMaronnaConfig()).Corr(x, y)
	if c < 0.5 || c > 0.9 {
		t.Errorf("Combined = %v, want near 0.7", c)
	}
}

func TestCombinedRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := bivariate(rng, 400, 0.9)
	for i := 0; i < 20; i++ {
		k := rng.Intn(len(x))
		x[k], y[k] = 12, -12
	}
	pc := PearsonCorr(x, y)
	cc := NewCombinedEstimator(DefaultMaronnaConfig()).Corr(x, y)
	if cc <= pc {
		t.Errorf("Combined (%v) should beat Pearson (%v) under contamination", cc, pc)
	}
}

// estimators returns one coefficient function per treatment, in
// Types() order.
func estimators() []func(x, y []float64) float64 {
	return []func(x, y []float64) float64{
		PearsonCorr,
		NewMaronnaEstimator(DefaultMaronnaConfig()).Corr,
		NewCombinedEstimator(DefaultMaronnaConfig()).Corr,
	}
}

func TestEstimatorsBoundedProperty(t *testing.T) {
	ests := estimators()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 4
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Exp(rng.Float64()*4)
			y[i] = rng.NormFloat64() * math.Exp(rng.Float64()*4)
		}
		for _, corr := range ests {
			c := corr(x, y)
			if math.IsNaN(c) || c < -1 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEstimatorsSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := bivariate(rng, 80, rng.Float64()*1.8-0.9)
		for _, corr := range estimators() {
			if math.Abs(corr(x, y)-corr(y, x)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
