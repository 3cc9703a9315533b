package corr

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kernelRing lays out a chronological series (series[t][i], t oldest
// first) as the online engine's ring with its head at slot head and
// returns the ring's two chronological segments and stride.
func kernelRing(series [][]float64, head int) (seg0, seg1 []float64, stride int) {
	m, n := len(series), len(series[0])
	stride = (n + 4) &^ 3
	rows := make([]float64, m*stride)
	for t, vec := range series {
		slot := (head + t) % m
		copy(rows[slot*stride:], vec)
		rows[slot*stride+n] = 1
	}
	return rows[head*stride:], rows[:head*stride], stride
}

// kernelTable runs one kernel tier over every row pair of the ring.
func kernelTable(simd bool, seg0, seg1 []float64, stride, n int) []float64 {
	tab := make([]float64, stride*stride)
	for i := 0; i < n; i += 2 {
		crossMoments(simd, tab, seg0, seg1, stride, i)
	}
	return tab
}

// checkKernel compares the pure-Go kernel with the specification (each
// entry Σ_t x_i·x_j added from +0 in chronological order, for i < n and
// i ≤ j ≤ n) and, where the host has AVX2, the vector kernel with the
// pure-Go one over every column either writes. All comparisons are bit
// for bit.
func checkKernel(t *testing.T, label string, series [][]float64, head int) {
	t.Helper()
	n := len(series[0])
	seg0, seg1, stride := kernelRing(series, head)
	got := kernelTable(false, seg0, seg1, stride, n)
	for i := 0; i < n; i++ {
		for j := i; j <= n; j++ {
			var s float64
			for _, vec := range series {
				y := 1.0
				if j < n {
					y = vec[j]
				}
				s += float64(vec[i] * y)
			}
			if g := got[i*stride+j]; math.Float64bits(g) != math.Float64bits(s) {
				t.Fatalf("%s head %d: Go kernel (%d,%d) = %v, spec %v", label, head, i, j, g, s)
			}
		}
	}
	if !simdSupported {
		return
	}
	vec := kernelTable(true, seg0, seg1, stride, n)
	for i := 0; i < n; i += 2 {
		for r := i; r <= i+1; r++ {
			for c := i &^ 3; c < stride; c++ {
				a, b := vec[r*stride+c], got[r*stride+c]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s head %d: AVX2 kernel (%d,%d) = %v, Go kernel %v", label, head, r, c, a, b)
				}
			}
		}
	}
}

// adversarialSeries draws m return vectors of n stocks mixing ordinary
// returns with ±0, subnormals, and magnitudes near 1e±154 (whose
// products underflow to subnormals or overflow to ±Inf, and whose
// sums then turn NaN). Stock 1, when present, is constant.
func adversarialSeries(rng *rand.Rand, n, m int) [][]float64 {
	series := make([][]float64, m)
	konst := rng.NormFloat64()
	for t := range series {
		vec := make([]float64, n)
		for i := range vec {
			sign := float64(1 - 2*rng.Intn(2))
			switch k := rng.Intn(10); {
			case i == 1:
				vec[i] = konst
			case k < 4:
				vec[i] = rng.NormFloat64() * 0.01
			case k == 4:
				vec[i] = math.Copysign(0, sign)
			case k == 5:
				vec[i] = sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
			case k == 6:
				vec[i] = sign * 1e154 * (1 + 9*rng.Float64())
			case k == 7:
				vec[i] = sign * 1e-154 * (1 + 9*rng.Float64())
			default:
				vec[i] = rng.NormFloat64()
			}
		}
		series[t] = vec
	}
	return series
}

// TestCrossMomentKernelMatchesReference holds both cross-moment kernel
// tiers to the specification over adversarial rings: universes either
// side of the 4- and 16-column block edges, every head phase of four
// window lengths, and values chosen to hit ±0, subnormals, overflow
// and NaN. It then pushes such returns through Pearson engines on both
// tiers: their matrices must be bit-equal, every coefficient in
// [-1, 1], and the constant stock's coefficients 0.
func TestCrossMomentKernelMatchesReference(t *testing.T) {
	if !simdSupported {
		t.Log("no AVX2 on this host: checking the pure-Go kernel against the specification only")
	}
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{2, 3, 4, 5, 15, 16, 17, 31, 33, 61} {
		for _, m := range []int{2, 7, 16, 100} {
			series := adversarialSeries(rng, n, m)
			for head := 0; head < m; head++ {
				checkKernel(t, "adversarial", series, head)
			}
		}
	}

	const n, m, T = 17, 7, 40
	series := adversarialSeries(rng, n, T)
	var engines [2]*OnlineEngine
	for k, scalar := range []bool{false, true} {
		e, err := NewOnlineEngine(EngineConfig{Type: Pearson, M: m, Workers: 1, DisableSIMD: scalar}, n)
		if err != nil {
			t.Fatal(err)
		}
		engines[k] = e
	}
	mats := [2]*Matrix{NewMatrix(n), NewMatrix(n)}
	for u, vec := range series {
		var ready bool
		for k, e := range engines {
			r, err := e.PushInto(vec, mats[k])
			if err != nil {
				t.Fatal(err)
			}
			ready = r
		}
		if !ready {
			continue
		}
		if !sameMatrixBits(mats[0], mats[1]) {
			t.Fatalf("u=%d: vector and scalar tiers' matrices differ", u)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c := mats[0].At(i, j)
				if !(c >= -1 && c <= 1) {
					t.Fatalf("u=%d (%d,%d): coefficient %v", u, i, j, c)
				}
				if (i == 1 || j == 1) && c != 0 {
					t.Fatalf("u=%d (%d,%d): constant stock's coefficient %v, want 0", u, i, j, c)
				}
			}
		}
	}
}

// FuzzCrossMomentKernel checks the kernel property from fuzzed bytes:
// the first three bytes pick the universe, window and head phase, the
// rest are the returns' float64 bits (non-finite ones, which the engine
// rejects before they reach the ring, read as 0).
func FuzzCrossMomentKernel(f *testing.F) {
	f.Add([]byte{3, 5, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	seed := []byte{17, 16, 9}
	for _, v := range []float64{1e154, -1e-154, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0.25, -3e153} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, m := 2+int(data[0])%40, 2+int(data[1])%30
		head := int(data[2]) % m
		data = data[3:]
		series := make([][]float64, m)
		for u := range series {
			vec := make([]float64, n)
			for i := range vec {
				if len(data) >= 8 {
					v := math.Float64frombits(binary.LittleEndian.Uint64(data))
					if !math.IsNaN(v) && !math.IsInf(v, 0) {
						vec[i] = v
					}
					data = data[8:]
				}
			}
			series[u] = vec
		}
		checkKernel(t, "fuzz", series, head)
	})
}
