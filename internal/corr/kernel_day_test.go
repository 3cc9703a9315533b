package corr_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/screen"
	"marketminer/internal/stats"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// The kernel checks run on one small day: 8 synthetic stocks (28
// pairs), seed 20080301, prepared at the first two paper-grid levels on
// one worker, and correlated at M = 100 on one worker. The counts are
// exact properties of the code on that day. The ratios time two
// variants of one computation in this process, so they hold across
// hosts where absolute times do not.

const kernelM = 100

var fusedTypes = []corr.Type{corr.Maronna, corr.Combined}

// sink keeps the compiler from discarding the timed per-window results.
var sink float64

var (
	kernelOnce sync.Once
	kernelRets [][]float64
	kernelErr  error
)

// kernelReturns returns the kernel day's per-stock log returns.
func kernelReturns(t *testing.T) [][]float64 {
	t.Helper()
	kernelOnce.Do(func() {
		uni, err := taq.NewUniverse(taq.SyntheticSymbols(8))
		if err != nil {
			kernelErr = err
			return
		}
		mc := market.DefaultConfig()
		mc.Universe, mc.Days, mc.Seed = uni, 1, 20080301
		gen, err := market.NewGenerator(mc)
		if err != nil {
			kernelErr = err
			return
		}
		cfg := backtest.Config{Market: mc, Levels: strategy.BaseGrid()[:2], Workers: 1}
		dd, err := backtest.PrepareDay(cfg, gen, 0)
		if err != nil {
			kernelErr = err
			return
		}
		kernelRets = dd.Returns
	})
	if kernelErr != nil {
		t.Fatal(kernelErr)
	}
	return kernelRets
}

// The warm-started Maronna chain on the kernel day: each pair's first
// window starts cold, every later window is solved from its
// predecessor's fit, and no warm run falls back to a cold one.
func TestKernelDayWarmStarts(t *testing.T) {
	css, err := corr.ComputeSeriesMulti(corr.EngineConfig{M: kernelM, Workers: 1}, fusedTypes, kernelReturns(t))
	if err != nil {
		t.Fatal(err)
	}
	st := css[0].Robust
	if st.Windows != 19040 || st.WarmHits != 19012 || st.ColdStarts != 28 || st.Fallbacks != 0 {
		t.Fatalf("windows %d, warm hits %d, cold starts %d, fallbacks %d; want 19040, 19012, 28, 0",
			st.Windows, st.WarmHits, st.ColdStarts, st.Fallbacks)
	}
}

// Screening the kernel day at TopFrac 0.5 keeps the closest half of
// its 28 pairs.
func TestKernelDayScreenKeepsHalf(t *testing.T) {
	_, st, err := screen.Select(screen.Config{TopFrac: 0.5, MinKeep: 1}, kernelReturns(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsTotal != 28 || st.PairsKept != 14 {
		t.Fatalf("kept %d of %d pairs, want 14 of 28", st.PairsKept, st.PairsTotal)
	}
}

// ratioRounds is how many interleaved rounds a ratio test times. With
// nine, each quartile is an observed round: the 3rd and 7th smallest.
const ratioRounds = 9

// ratioSample is the least wall time one timed sample spans, so the
// clock's resolution and one scheduler tick stay small against it.
const ratioSample = 20 * time.Millisecond

// needVerify skips a timing test unless MM_VERIFY=1: timings on a
// loaded or shared host belong in the full verification gate, not in
// the tier-1 suite.
func needVerify(t *testing.T) {
	t.Helper()
	if os.Getenv("MM_VERIFY") != "1" {
		t.Skip("timing check; set MM_VERIFY=1 to run it")
	}
}

// perOp returns f's mean wall time per call over reps calls.
func perOp(t *testing.T, reps int, f func() error) float64 {
	t.Helper()
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	return float64(time.Since(start)) / float64(reps)
}

// repsFor returns how many calls of f fill one ratioSample; the call
// it times also warms f up.
func repsFor(t *testing.T, f func() error) int {
	t.Helper()
	return max(1, int(float64(ratioSample)/perOp(t, 1, f))+1)
}

// speedups times base and fast in ratioRounds rounds, alternating which
// of the two goes first, and returns each round's base/fast ratio of
// per-call times.
func speedups(t *testing.T, base, fast func() error) []float64 {
	t.Helper()
	nb, nf := repsFor(t, base), repsFor(t, fast)
	out := make([]float64, ratioRounds)
	for r := range out {
		var b, f float64
		if r%2 == 0 {
			b, f = perOp(t, nb, base), perOp(t, nf, fast)
		} else {
			f, b = perOp(t, nf, fast), perOp(t, nb, base)
		}
		out[r] = b / f
	}
	return out
}

// quartiles returns the lower and upper quartiles of xs.
func quartiles(t *testing.T, xs []float64) (q1, q3 float64) {
	t.Helper()
	q1, err := stats.Quantile(xs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	q3, err = stats.Quantile(xs, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	return q1, q3
}

// atLeast passes when the lower quartile of ratios clears floor, fails
// when the upper quartile misses it, and otherwise skips as unresolved:
// a spread that straddles the bound is neither a pass nor a failure.
func atLeast(t *testing.T, ratios []float64, floor float64) {
	t.Helper()
	q1, q3 := quartiles(t, ratios)
	switch {
	case q1 >= floor:
		t.Logf("PASS: quartiles %.4g..%.4g >= bound %.5g (rounds %.4g)", q1, q3, floor, ratios)
	case q3 < floor:
		t.Errorf("FAIL: quartiles %.4g..%.4g < bound %.5g (rounds %.4g)", q1, q3, floor, ratios)
	default:
		t.Skipf("unresolved: quartiles %.4g..%.4g straddle bound %.5g (rounds %.4g)", q1, q3, floor, ratios)
	}
}

// atMost is atLeast for a ceiling.
func atMost(t *testing.T, ratios []float64, ceiling float64) {
	t.Helper()
	q1, q3 := quartiles(t, ratios)
	switch {
	case q3 <= ceiling:
		t.Logf("PASS: quartiles %.4g..%.4g <= bound %.5g (rounds %.4g)", q1, q3, ceiling, ratios)
	case q1 > ceiling:
		t.Errorf("FAIL: quartiles %.4g..%.4g > bound %.5g (rounds %.4g)", q1, q3, ceiling, ratios)
	default:
		t.Skipf("unresolved: quartiles %.4g..%.4g straddle bound %.5g (rounds %.4g)", q1, q3, ceiling, ratios)
	}
}

// dayPass is one whole-day call of compute: ComputeSeriesMulti or the
// per-pair ComputeSeriesMultiReference.
func dayPass(compute func(corr.EngineConfig, []corr.Type, [][]float64) ([]*corr.Series, error),
	cfg corr.EngineConfig, types []corr.Type, rets [][]float64) func() error {
	return func() error {
		_, err := compute(cfg, types, rets)
		return err
	}
}

// againstReference holds the per-pair reference's time over
// ComputeSeriesMulti's, on the kernel day, to floor.
func againstReference(t *testing.T, cfg corr.EngineConfig, types []corr.Type, floor float64) {
	t.Helper()
	rets := kernelReturns(t)
	ref := dayPass(corr.ComputeSeriesMultiReference, cfg, types, rets)
	atLeast(t, speedups(t, ref, dayPass(corr.ComputeSeriesMulti, cfg, types, rets)), floor)
}

// needAVX2 skips a test of the vector kernels on a host whose dispatch
// runs them on the scalar path, where they measure the fallback.
func needAVX2(t *testing.T) {
	t.Helper()
	if tier := corr.SIMDTier(); tier != "avx2" {
		t.Skipf("dispatch tier is %s", tier)
	}
}

// One warm-started Maronna fit serving both robust treatments against
// two independent estimations per window, sliding over the day's first
// pair.
func TestRatioFusion(t *testing.T) {
	needVerify(t)
	rets := kernelReturns(t)
	x, y := rets[0], rets[1]
	steps := len(x) - kernelM
	est := corr.NewMaronnaEstimator(corr.DefaultMaronnaConfig())
	cest := corr.NewCombinedEstimator(corr.DefaultMaronnaConfig())
	slide := func(fused bool) func() error {
		var sc *corr.Scratch
		return func() error {
			var warm corr.Fit
			warm, sc = est.FitScratch(x[:kernelM], y[:kernelM], sc, nil)
			for s := 1; s < steps; s++ {
				xs, ys := x[s:s+kernelM], y[s:s+kernelM]
				warm, sc = est.FitScratch(xs, ys, sc, &warm)
				if fused {
					sink += corr.CombinedFromFit(xs, ys, warm.Rho, sc.Weights())
				} else {
					var c float64
					c, sc = cest.CorrScratch(xs, ys, sc)
					sink += c
				}
			}
			return nil
		}
	}
	atLeast(t, speedups(t, slide(false), slide(true)), 2.0598)
}

// The matrix engine (shared moments, tiles) against the per-pair
// reference on the whole-day Pearson pass, both on one worker.
func TestRatioEnginePearson(t *testing.T) {
	needVerify(t)
	againstReference(t, corr.EngineConfig{M: kernelM, Workers: 1}, []corr.Type{corr.Pearson}, 0.92689)
}

// The matrix engine against the per-pair reference on the whole-day
// fused Maronna+Combined pass, both on one worker.
func TestRatioEngineFused(t *testing.T) {
	needVerify(t)
	againstReference(t, corr.EngineConfig{M: kernelM, Workers: 1}, fusedTypes, 1.02439)
}

// The batched robust kernel on its scalar tier against the per-pair
// reference on the fused day, so the ratio is the batching alone.
func TestRatioBatched(t *testing.T) {
	needVerify(t)
	againstReference(t, corr.EngineConfig{M: kernelM, Workers: 1, DisableSIMD: true}, fusedTypes, 0.66458)
}

// Screening the day to its closest half and running the batched kernel
// on the best tier over the survivors, against the unscreened per-pair
// reference: the day-level cost screening saves.
func TestRatioScreenedPipeline(t *testing.T) {
	needVerify(t)
	rets := kernelReturns(t)
	scfg := screen.Config{TopFrac: 0.5, MinKeep: 1}
	keep, _, err := screen.Select(scfg, rets)
	if err != nil {
		t.Fatal(err)
	}
	ref := dayPass(corr.ComputeSeriesMultiReference, corr.EngineConfig{M: kernelM, Workers: 1, DisableSIMD: true}, fusedTypes, rets)
	survivors := dayPass(corr.ComputeSeriesMulti, corr.EngineConfig{M: kernelM, Workers: 1, Pairs: keep}, fusedTypes, rets)
	pipeline := func() error {
		if _, _, err := screen.Select(scfg, rets); err != nil {
			return err
		}
		return survivors()
	}
	atLeast(t, speedups(t, ref, pipeline), 1.95150)
}

// The batched kernel's AVX2 tier against its scalar tier on the fused
// day.
func TestRatioSIMD(t *testing.T) {
	needVerify(t)
	needAVX2(t)
	rets := kernelReturns(t)
	scalar := dayPass(corr.ComputeSeriesMulti, corr.EngineConfig{M: kernelM, Workers: 1, DisableSIMD: true}, fusedTypes, rets)
	vector := dayPass(corr.ComputeSeriesMulti, corr.EngineConfig{M: kernelM, Workers: 1}, fusedTypes, rets)
	atLeast(t, speedups(t, scalar, vector), 1.02141)
}

// The share of the AVX2 tier's batch time spent transposing windows
// into lane-major tiles, one profiled fused day per round.
func TestRatioSIMDPackOverhead(t *testing.T) {
	needVerify(t)
	needAVX2(t)
	rets := kernelReturns(t)
	cfg := corr.EngineConfig{M: kernelM, Workers: 1}
	corr.SetSIMDProfiling(true)
	defer corr.SetSIMDProfiling(false)
	fracs := make([]float64, ratioRounds)
	for r := range fracs {
		css, err := corr.ComputeSeriesMulti(cfg, fusedTypes, rets)
		if err != nil {
			t.Fatal(err)
		}
		st := css[0].Robust
		if st.SIMDPackNs+st.SIMDRunNs == 0 {
			t.Fatal("profiled day recorded no vector batch time")
		}
		fracs[r] = float64(st.SIMDPackNs) / float64(st.SIMDPackNs+st.SIMDRunNs)
	}
	atMost(t, fracs, 0.062049)
}
