package corr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"marketminer/internal/taq"
)

// syntheticReturns builds n stocks × T returns where stocks 0 and 1
// share a common factor (high correlation) and the rest are noise.
func syntheticReturns(seed int64, n, T int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rets := make([][]float64, n)
	for i := range rets {
		rets[i] = make([]float64, T)
	}
	for t := 0; t < T; t++ {
		f := rng.NormFloat64()
		for i := 0; i < n; i++ {
			eps := rng.NormFloat64()
			switch i {
			case 0:
				rets[i][t] = f + 0.2*eps
			case 1:
				rets[i][t] = f + 0.25*eps
			default:
				rets[i][t] = eps
			}
		}
	}
	return rets
}

func TestComputeSeriesShape(t *testing.T) {
	rets := syntheticReturns(1, 4, 120)
	s, err := ComputeSeries(EngineConfig{Type: Pearson, M: 50}, rets)
	if err != nil {
		t.Fatal(err)
	}
	if s.FirstS != 50 {
		t.Errorf("FirstS = %d", s.FirstS)
	}
	if len(s.Pairs) != 6 {
		t.Errorf("pairs = %d, want 6", len(s.Pairs))
	}
	if s.Len() != 120-50+1 {
		t.Errorf("Len = %d, want 71", s.Len())
	}
}

func TestComputeSeriesMatchesDirectPearson(t *testing.T) {
	rets := syntheticReturns(2, 3, 90)
	s, err := ComputeSeries(EngineConfig{Type: Pearson, M: 30, Workers: 2}, rets)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the rolling computation against the direct form at
	// several offsets for every pair.
	pairs := taq.AllPairs(3)
	for k, p := range pairs {
		for _, tt := range []int{0, 1, 17, 60} {
			want := PearsonCorr(rets[p.I][tt:tt+30], rets[p.J][tt:tt+30])
			got := s.Corr[k][tt]
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("pair %v offset %d: rolling %v direct %v", p, tt, got, want)
			}
		}
	}
}

func TestComputeSeriesDetectsCorrelatedPair(t *testing.T) {
	rets := syntheticReturns(3, 5, 300)
	for _, ty := range Types() {
		s, err := ComputeSeries(EngineConfig{Type: ty, M: 60}, rets)
		if err != nil {
			t.Fatalf("%v: %v", ty, err)
		}
		pid01 := taq.PairID(0, 1, 5)
		series01 := s.PairSeries(pid01)
		mean01 := mean(series01)
		if mean01 < 0.8 {
			t.Errorf("%v: factor pair mean corr = %v, want > 0.8", ty, mean01)
		}
		// An unrelated pair should hover near zero.
		pid23 := taq.PairID(2, 3, 5)
		if m := mean(s.PairSeries(pid23)); math.Abs(m) > 0.25 {
			t.Errorf("%v: noise pair mean corr = %v, want ≈ 0", ty, m)
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

func TestComputeSeriesWorkerInvariance(t *testing.T) {
	rets := syntheticReturns(4, 6, 150)
	for _, ty := range Types() {
		s1, err := ComputeSeries(EngineConfig{Type: ty, M: 40, Workers: 1}, rets)
		if err != nil {
			t.Fatal(err)
		}
		s8, err := ComputeSeries(EngineConfig{Type: ty, M: 40, Workers: 8}, rets)
		if err != nil {
			t.Fatal(err)
		}
		for k := range s1.Corr {
			for u := range s1.Corr[k] {
				if s1.Corr[k][u] != s8.Corr[k][u] {
					t.Fatalf("%v: worker count changed result at pair %d step %d", ty, k, u)
				}
			}
		}
	}
}

func TestComputeSeriesPairSubset(t *testing.T) {
	rets := syntheticReturns(5, 5, 100)
	want := []int{taq.PairID(0, 1, 5), taq.PairID(2, 4, 5)}
	s, err := ComputeSeries(EngineConfig{Type: Pearson, M: 30, Pairs: want}, rets)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Corr) != 2 {
		t.Fatalf("computed %d pair series, want 2", len(s.Corr))
	}
	if s.PairSeries(want[1]) == nil {
		t.Error("requested pair missing")
	}
	if s.PairSeries(taq.PairID(0, 2, 5)) != nil {
		t.Error("unrequested pair present")
	}
}

func TestComputeSeriesErrors(t *testing.T) {
	good := syntheticReturns(6, 3, 50)
	if _, err := ComputeSeries(EngineConfig{Type: Pearson, M: 10}, good[:1]); err == nil {
		t.Error("single stock should error")
	}
	ragged := [][]float64{make([]float64, 50), make([]float64, 49)}
	if _, err := ComputeSeries(EngineConfig{Type: Pearson, M: 10}, ragged); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := ComputeSeries(EngineConfig{Type: Pearson, M: 1}, good); err == nil {
		t.Error("M<2 should error")
	}
	if _, err := ComputeSeries(EngineConfig{Type: Pearson, M: 51}, good); err == nil {
		t.Error("window longer than data should error")
	}
	bad := syntheticReturns(7, 3, 50)
	bad[1][10] = math.NaN()
	if _, err := ComputeSeries(EngineConfig{Type: Pearson, M: 10}, bad); err == nil {
		t.Error("NaN return should error")
	}
}

func TestOnlineEngineMatchesBatch(t *testing.T) {
	n, T, m := 4, 80, 25
	rets := syntheticReturns(8, n, T)
	batch, err := ComputeSeries(EngineConfig{Type: Pearson, M: m}, rets)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewOnlineEngine(EngineConfig{Type: Pearson, M: m, Workers: 3}, n)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]float64, n)
	step := 0
	for u := 0; u < T; u++ {
		for i := 0; i < n; i++ {
			vec[i] = rets[i][u]
		}
		mx, err := eng.Push(vec)
		if err != nil {
			t.Fatal(err)
		}
		if u < m-1 {
			if mx != nil {
				t.Fatalf("matrix emitted during warmup at u=%d", u)
			}
			continue
		}
		if mx == nil {
			t.Fatalf("no matrix at u=%d", u)
		}
		for k := range batch.Pairs {
			if math.Abs(mx.AtPair(k)-batch.Corr[k][step]) > 1e-9 {
				t.Fatalf("online/batch mismatch at step %d pair %d: %v vs %v",
					step, k, mx.AtPair(k), batch.Corr[k][step])
			}
		}
		step++
	}
	if step != batch.Len() {
		t.Errorf("online produced %d matrices, batch has %d", step, batch.Len())
	}
}

// onlinePearsonDigest is the FNV-64a of every online Pearson matrix in
// TestOnlinePearsonMatchesParentDigest's corpus, taken at the commit
// before the cross moments were summed four pairs per pass.
const onlinePearsonDigest = 0xff95ac67532a99f7

// TestOnlinePearsonMatchesParentDigest pins the online Pearson matrices
// bit for bit, which TestOnlineEngineMatchesBatch's 1e-9 tolerance
// cannot. Every layout of the same triangle hashes to one digest: one
// and three workers with tile sizes that leave ragged tiles, and the
// pure-Go tier (DisableSIMD), so the vector and scalar kernels share
// one digest.
func TestOnlinePearsonMatchesParentDigest(t *testing.T) {
	const n, T = 13, 70
	rets := syntheticReturns(71, n, T)
	layouts := map[string]EngineConfig{
		"full-1-worker":  {Workers: 1, tile: 10},
		"full-3-workers": {Workers: 3, tile: 10},
		"full-tile-5":    {Workers: 3, tile: 5},
		"scalar-tier":    {Workers: 2, DisableSIMD: true},
	}
	for name, cfg := range layouts {
		h := fnv.New64a()
		var b [8]byte
		for _, m := range []int{7, 16} {
			cfg.Type, cfg.M = Pearson, m
			e, err := NewOnlineEngine(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			dst := NewMatrix(n)
			vec := make([]float64, n)
			for u := 0; u < T; u++ {
				for i := range vec {
					vec[i] = rets[i][u]
				}
				ready, err := e.PushInto(vec, dst)
				if err != nil {
					t.Fatal(err)
				}
				if !ready {
					continue
				}
				for _, v := range dst.Values() {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
		}
		if got := h.Sum64(); got != onlinePearsonDigest {
			t.Errorf("%s: digest %#x, want %#x", name, got, uint64(onlinePearsonDigest))
		}
	}
}

// onlineRobustDigest is the FNV-64a of every online Maronna and
// Combined matrix over TestOnlineRobustMatchesParentDigest's corpus,
// taken before the batched kernel's lanes kept their quad slots.
const onlineRobustDigest = 0x6ef7554d12bb4e79

// TestOnlineRobustMatchesParentDigest pins the online robust matrices
// bit for bit on TestOnlinePearsonMatchesParentDigest's corpus and
// layouts: one and three workers with ragged tiles, tile 5, and the
// pure-Go tier all hash to one digest, so the batched kernel's lane
// scheduling, quad padding and both dispatch tiers are covered.
func TestOnlineRobustMatchesParentDigest(t *testing.T) {
	const n, T = 13, 70
	rets := syntheticReturns(71, n, T)
	layouts := map[string]EngineConfig{
		"full-1-worker":  {Workers: 1, tile: 10},
		"full-3-workers": {Workers: 3, tile: 10},
		"full-tile-5":    {Workers: 3, tile: 5},
		"scalar-tier":    {Workers: 2, DisableSIMD: true},
	}
	for name, cfg := range layouts {
		h := fnv.New64a()
		var b [8]byte
		for _, ty := range []Type{Maronna, Combined} {
			for _, m := range []int{7, 16} {
				cfg.Type, cfg.M = ty, m
				e, err := NewOnlineEngine(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				dst := NewMatrix(n)
				vec := make([]float64, n)
				for u := 0; u < T; u++ {
					for i := range vec {
						vec[i] = rets[i][u]
					}
					ready, err := e.PushInto(vec, dst)
					if err != nil {
						t.Fatal(err)
					}
					if !ready {
						continue
					}
					for _, v := range dst.Values() {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
						h.Write(b[:])
					}
				}
			}
		}
		if got := h.Sum64(); got != onlineRobustDigest {
			t.Errorf("%s: digest %#x, want %#x", name, got, uint64(onlineRobustDigest))
		}
	}
}

// TestOnlineMatchesDaySeries streams one day through OnlineEngine and
// compares every coefficient with the batch engine's Series for the
// same windows. The robust types must match bit for bit: both start
// each pair's warm chain at the first window and fit the same window
// values in the same order. Online Pearson re-sums each window while
// the batch rolls its sums, so it agrees only to rounding; the test
// logs how many of its coefficients happen to be bit-equal.
func TestOnlineMatchesDaySeries(t *testing.T) {
	const n, T, m = 20, 240, 30
	rets := syntheticReturns(20, n, T)
	d, err := NewDay(rets)
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []Type{Pearson, Maronna, Combined} {
		ss, err := d.Series(EngineConfig{M: m, Workers: 2}, []Type{ty})
		if err != nil {
			t.Fatal(err)
		}
		want := ss[0]
		e, err := NewOnlineEngine(EngineConfig{Type: ty, M: m, Workers: 2}, n)
		if err != nil {
			t.Fatal(err)
		}
		dst := NewMatrix(n)
		vec := make([]float64, n)
		var same, total int
		var maxDiff float64
		for u := 0; u < T; u++ {
			for i := range vec {
				vec[i] = rets[i][u]
			}
			ready, err := e.PushInto(vec, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !ready {
				continue
			}
			w := u - m + 1
			for k, id := range want.Pairs {
				got, ref := dst.AtPair(id), want.Corr[k][w]
				total++
				if math.Float64bits(got) == math.Float64bits(ref) {
					same++
					continue
				}
				maxDiff = max(maxDiff, math.Abs(got-ref))
				if ty != Pearson {
					t.Fatalf("%v window %d pair %d: online %v, batch %v", ty, w, id, got, ref)
				}
			}
		}
		if total != len(want.Pairs)*want.Len() {
			t.Fatalf("%v: compared %d coefficients, want %d", ty, total, len(want.Pairs)*want.Len())
		}
		if ty == Pearson && maxDiff > 1e-12 {
			t.Errorf("Pearson: max |online - batch| = %g, want rounding only", maxDiff)
		}
		t.Logf("%v: %d / %d coefficients bit-equal (max |diff| %g)", ty, same, total, maxDiff)
	}
}

func TestOnlineEngineMaronna(t *testing.T) {
	n, m := 3, 20
	eng, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m}, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var last *Matrix
	for u := 0; u < 40; u++ {
		f := rng.NormFloat64()
		vec := []float64{f + 0.1*rng.NormFloat64(), f + 0.1*rng.NormFloat64(), rng.NormFloat64()}
		last, err = eng.Push(vec)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last == nil {
		t.Fatal("no matrix produced")
	}
	if c := last.At(0, 1); c < 0.8 {
		t.Errorf("factor pair corr = %v, want high", c)
	}
	if err := last.Validate(); err != nil {
		t.Error(err)
	}
}

func TestOnlineEngineErrors(t *testing.T) {
	if _, err := NewOnlineEngine(EngineConfig{Type: Pearson, M: 10}, 1); err == nil {
		t.Error("n<2 should error")
	}
	if _, err := NewOnlineEngine(EngineConfig{Type: Pearson, M: 1}, 3); err == nil {
		t.Error("M<2 should error")
	}
	eng, _ := NewOnlineEngine(EngineConfig{Type: Pearson, M: 5}, 3)
	if _, err := eng.Push([]float64{1, 2}); err == nil {
		t.Error("wrong vector length should error")
	}
	if _, err := eng.Push([]float64{1, math.NaN(), 2}); err == nil {
		t.Error("NaN should error")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4)
	if m.NumPairs() != 6 {
		t.Fatalf("pairs=%d", m.NumPairs())
	}
	m.SetPair(taq.PairID(1, 3, 4), 0.5)
	if m.At(1, 3) != 0.5 || m.At(3, 1) != 0.5 {
		t.Error("symmetric access broken")
	}
	if m.At(2, 2) != 1 {
		t.Error("diagonal should be 1")
	}
	if len(m.Values()) != 6 {
		t.Error("Values length wrong")
	}
}

func TestMatrixValidate(t *testing.T) {
	m := NewMatrix(3)
	m.SetPair(taq.PairID(0, 1, 3), 0.3)
	if err := m.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	m.SetPair(taq.PairID(0, 2, 3), math.NaN())
	if err := m.Validate(); err == nil {
		t.Error("NaN coefficient accepted")
	}
	m.SetPair(taq.PairID(0, 2, 3), 1.5)
	if err := m.Validate(); err == nil {
		t.Error("out-of-range coefficient accepted")
	}
}

// TestRollingPearsonDriftBounded is the running-sum drift regression:
// over a long adversarial series (mixed magnitudes, persistent offsets,
// huge spikes entering and leaving the window) the O(1) rolling update
// must stay within 1e-9 of the directly-computed coefficient for every
// window, which the periodic re-anchoring guarantees — without it the
// incremental sums drift far past this bound by the end of the series.
func TestRollingPearsonDriftBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const m, T = 100, 20000 // ~26 trading days of 30s intervals
	x := make([]float64, T)
	y := make([]float64, T)
	for i := range x {
		f := rng.NormFloat64()
		// Small return-scale values with a persistent offset so the
		// raw second moments are dominated by the mean (maximum
		// cancellation), plus rare enormous spikes.
		x[i] = 1e-3*(f+0.5*rng.NormFloat64()) + 0.02
		y[i] = 1e-3*(f+0.5*rng.NormFloat64()) - 0.015
		// Spikes three orders of magnitude above the return scale —
		// a cleaned feed's worst case — entering and leaving windows.
		switch {
		case i%619 == 0:
			x[i] += 12
		case i%811 == 0:
			y[i] -= 15
		}
	}
	dst := make([]float64, T-m+1)
	rollingPearson(x, y, m, dst)
	var worst float64
	for tt := 0; tt+m <= T; tt++ {
		want := PearsonCorr(x[tt:tt+m], y[tt:tt+m])
		if d := math.Abs(dst[tt] - want); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("max rolling/direct divergence %v, want < 1e-9", worst)
	}
}
