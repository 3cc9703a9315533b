package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// sample variance is 32/7.
	approx(t, Variance(xs), 32.0/7.0, 1e-12, "Variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "StdDev")
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance of empty should be 0")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	approx(t, Skewness(xs), 0, 1e-12, "Skewness(symmetric)")
}

func TestSkewnessRight(t *testing.T) {
	// Right-skewed sample: long tail to the right → positive skewness.
	xs := []float64{1, 1, 1, 1, 2, 2, 3, 10}
	if s := Skewness(xs); s <= 0 {
		t.Errorf("Skewness of right-skewed sample = %v, want > 0", s)
	}
}

func TestSkewnessDegenerate(t *testing.T) {
	if Skewness([]float64{1, 2}) != 0 {
		t.Error("Skewness of n<3 should be 0")
	}
	if Skewness([]float64{5, 5, 5, 5}) != 0 {
		t.Error("Skewness of constant sample should be 0")
	}
}

func TestKurtosisNormalish(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	// Fourth standardized moment of a normal is 3.
	approx(t, Kurtosis(xs), 3, 0.1, "Kurtosis(normal)")
}

func TestKurtosisDegenerate(t *testing.T) {
	if Kurtosis([]float64{1}) != 0 {
		t.Error("Kurtosis of n<2 should be 0")
	}
	if Kurtosis([]float64{2, 2, 2}) != 0 {
		t.Error("Kurtosis of constant sample should be 0")
	}
}

func TestKurtosisFatTails(t *testing.T) {
	// A sample with extreme outliers has kurtosis far above 3.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i%3) - 1
	}
	xs[0] = 50
	xs[1] = -50
	if k := Kurtosis(xs); k < 10 {
		t.Errorf("Kurtosis with outliers = %v, want ≫ 3", k)
	}
}

func TestSharpeRatio(t *testing.T) {
	xs := []float64{0.01, 0.02, 0.03}
	want := Mean(xs) / StdDev(xs)
	approx(t, SharpeRatio(xs), want, 1e-12, "SharpeRatio")
	if !math.IsInf(SharpeRatio([]float64{1, 1}), 1) {
		t.Error("SharpeRatio of constant positive sample should be +Inf")
	}
	if !math.IsInf(SharpeRatio([]float64{-1, -1}), -1) {
		t.Error("SharpeRatio of constant negative sample should be -Inf")
	}
	if SharpeRatio([]float64{0, 0}) != 0 {
		t.Error("SharpeRatio of zeros should be 0")
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 3}
	q0, err := Quantile(xs, 0)
	if err != nil || q0 != 1 {
		t.Errorf("Quantile(0) = %v, %v; want 1", q0, err)
	}
	q1, err := Quantile(xs, 1)
	if err != nil || q1 != 5 {
		t.Errorf("Quantile(1) = %v, %v; want 5", q1, err)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// Type-7: h = q*(n-1); q=0.5 → h=1.5 → 2.5
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, q, 2.5, 1e-12, "Quantile(0.5)")
	q25, _ := Quantile(xs, 0.25)
	approx(t, q25, 1.75, 1e-12, "Quantile(0.25)")
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("expected error for q<0")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("expected error for q>1")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("expected error for NaN q")
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v,%v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
}

func TestDescribeSample(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	d := DescribeSample(xs)
	if d.N != 5 {
		t.Errorf("N = %d", d.N)
	}
	approx(t, d.Mean, 3, 1e-12, "Describe.Mean")
	approx(t, d.Median, 3, 1e-12, "Describe.Median")
	approx(t, d.Min, 1, 1e-12, "Describe.Min")
	approx(t, d.Max, 5, 1e-12, "Describe.Max")
	if d.Sharpe <= 0 {
		t.Errorf("Sharpe = %v, want > 0", d.Sharpe)
	}
}

func TestBoxPlotBasic(t *testing.T) {
	// 1..11 with one extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	bp, err := BoxPlotStats(xs)
	if err != nil {
		t.Fatal(err)
	}
	if bp.N != 12 {
		t.Errorf("N = %d", bp.N)
	}
	if len(bp.Outliers) != 1 || bp.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", bp.Outliers)
	}
	if bp.NumHigh != 1 || bp.NumLow != 0 {
		t.Errorf("NumHigh=%d NumLow=%d", bp.NumHigh, bp.NumLow)
	}
	if bp.WhiskerHigh != 11 {
		t.Errorf("WhiskerHigh = %v, want 11", bp.WhiskerHigh)
	}
	if bp.WhiskerLow != 1 {
		t.Errorf("WhiskerLow = %v, want 1", bp.WhiskerLow)
	}
	if bp.Q1 > bp.Median || bp.Median > bp.Q3 {
		t.Errorf("quartile ordering violated: %v %v %v", bp.Q1, bp.Median, bp.Q3)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	if _, err := BoxPlotStats(nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestBoxPlotConstant(t *testing.T) {
	bp, err := BoxPlotStats([]float64{4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Median != 4 || bp.Q1 != 4 || bp.Q3 != 4 || len(bp.Outliers) != 0 {
		t.Errorf("constant boxplot wrong: %+v", bp)
	}
	if bp.WhiskerLow != 4 || bp.WhiskerHigh != 4 {
		t.Errorf("whiskers = %v,%v", bp.WhiskerLow, bp.WhiskerHigh)
	}
}

func TestBoxPlotInvariantsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Clamp magnitude so sums do not overflow.
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		bp, err := BoxPlotStats(xs)
		if err != nil {
			return false
		}
		if bp.Q1 > bp.Median || bp.Median > bp.Q3 {
			return false
		}
		if bp.WhiskerLow > bp.WhiskerHigh {
			return false
		}
		if len(bp.Outliers) != bp.NumLow+bp.NumHigh {
			return false
		}
		return bp.N == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileSortedMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		sort.Float64s(xs)
		va := quantileSorted(xs, qa)
		vb := quantileSorted(xs, qb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
