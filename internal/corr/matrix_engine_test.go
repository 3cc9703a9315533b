package corr

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"marketminer/internal/taq"
)

// TestMatrixEngineMatchesReference is the tentpole property test: the
// tiled, shared-moment, work-stealing matrix engine must produce
// byte-identical output to the per-pair reference engine for every
// correlation type, worker count and tile size — including the robust
// warm-start statistics, which the sweep orchestrator surfaces — under
// both dispatch tiers. The scalar tier is what every host without AVX2
// runs, so forcing it here checks that whole grid on every host.
func TestMatrixEngineMatchesReference(t *testing.T) {
	rets := marketReturns(t, 7, 20080311)
	const m = 60
	typeSets := [][]Type{
		{Pearson},
		{Maronna},
		{Combined},
		{Pearson, Maronna, Combined},
	}
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	tileSizes := []int{1, 7, 64, 1 << 30}

	for _, types := range typeSets {
		ref, err := ComputeSeriesMultiReference(EngineConfig{M: m, Workers: 1}, types, rets)
		if err != nil {
			t.Fatal(err)
		}
		for _, noSIMD := range []bool{false, true} {
			for _, workers := range workerCounts {
				for _, tile := range tileSizes {
					label := fmt.Sprintf("types=%v disableSIMD=%v workers=%d tile=%d", types, noSIMD, workers, tile)
					got, err := ComputeMatrixSeries(EngineConfig{M: m, Workers: workers, TileSize: tile, DisableSIMD: noSIMD}, types, rets)
					if err != nil {
						t.Fatal(err)
					}
					for oi := range ref {
						for k := range ref[oi].Corr {
							for w := range ref[oi].Corr[k] {
								if got[oi].Corr[k][w] != ref[oi].Corr[k][w] {
									t.Fatalf("%s: series %v pair %d window %d: matrix %v reference %v",
										label, ref[oi].Type, k, w, got[oi].Corr[k][w], ref[oi].Corr[k][w])
								}
							}
						}
						rs, gs := ref[oi].Robust, got[oi].Robust
						if (rs == nil) != (gs == nil) {
							t.Fatalf("%s: robust stats presence differs", label)
						}
						if rs == nil {
							continue
						}
						if gs.Windows != rs.Windows || gs.WarmHits != rs.WarmHits ||
							gs.ColdStarts != rs.ColdStarts || gs.Fallbacks != rs.Fallbacks {
							t.Fatalf("%s: robust stats differ: matrix %+v reference %+v", label, *gs, *rs)
						}
						for i := range rs.IterHist {
							if gs.IterHist[i] != rs.IterHist[i] {
								t.Fatalf("%s: IterHist[%d] = %d, reference %d", label, i, gs.IterHist[i], rs.IterHist[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestMatrixEnginePairSubset pins the sweep orchestrator's unit of
// work: a pair-block subset computed by the matrix engine must match
// the same pairs sliced out of a full-universe reference run.
func TestMatrixEnginePairSubset(t *testing.T) {
	rets := marketReturns(t, 6, 41)
	const m = 50
	subset := []int{taq.PairID(0, 1, 6), taq.PairID(2, 5, 6), taq.PairID(3, 4, 6), taq.PairID(0, 5, 6)}
	full, err := ComputeSeriesMultiReference(EngineConfig{M: m}, []Type{Pearson, Maronna, Combined}, rets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeMatrixSeries(EngineConfig{M: m, Workers: 2, TileSize: 4, Pairs: subset}, []Type{Pearson, Maronna, Combined}, rets)
	if err != nil {
		t.Fatal(err)
	}
	for oi := range got {
		for _, pid := range subset {
			want := full[oi].PairSeries(pid)
			have := got[oi].PairSeries(pid)
			if have == nil {
				t.Fatalf("series %v: pair %d missing", got[oi].Type, pid)
			}
			for w := range want {
				if have[w] != want[w] {
					t.Fatalf("series %v pair %d window %d: subset %v full %v",
						got[oi].Type, pid, w, have[w], want[w])
				}
			}
		}
	}
}

// TestBuildTiles checks the tiling invariants: every requested pair
// lands in exactly one tile, and tile population respects the
// stock-block bound.
func TestBuildTiles(t *testing.T) {
	const n = 13
	allPairs := taq.AllPairs(n)
	for _, tile := range []int{1, 7, 64, 1 << 30} {
		tiles := buildTiles(allPairs, tile)
		seen := make([]bool, len(allPairs))
		dim := tileDim(tile)
		for _, tl := range tiles {
			if len(tl) == 0 {
				t.Fatalf("tile=%d: empty tile", tile)
			}
			if len(tl) > dim*dim {
				t.Fatalf("tile=%d: tile holds %d pairs, bound %d", tile, len(tl), dim*dim)
			}
			for _, k := range tl {
				if seen[k] {
					t.Fatalf("tile=%d: pair index %d appears twice", tile, k)
				}
				seen[k] = true
			}
		}
		for k, s := range seen {
			if !s {
				t.Fatalf("tile=%d: pair index %d missing", tile, k)
			}
		}
	}
}

// TestPairsOfMatchesAllPairs checks the row walk against the canonical
// table for ascending, sparse, repeated and backwards requests.
func TestPairsOfMatchesAllPairs(t *testing.T) {
	for _, n := range []int{2, 3, 13, 61} {
		all := taq.AllPairs(n)
		ids := make([]int, len(all))
		for i := range ids {
			ids[i] = i
		}
		last := len(all) - 1
		for _, req := range [][]int{ids, {0, last}, {last, 0, last / 2, last / 2}, {}} {
			for k, p := range pairsOf(req, n) {
				if p != all[req[k]] {
					t.Fatalf("n=%d: pairsOf(%v)[%d] = %v, want %v", n, req, k, p, all[req[k]])
				}
			}
		}
	}
}

// TestMatrixSeriesRejectsOutOfRangePairs: a pair id outside the
// triangle is an error, not a walk off its end.
func TestMatrixSeriesRejectsOutOfRangePairs(t *testing.T) {
	rets := marketReturns(t, 4, 3) // 6 pairs
	for _, bad := range [][]int{{-1}, {0, 6}} {
		if _, err := ComputeMatrixSeries(EngineConfig{M: 50, Pairs: bad}, []Type{Pearson}, rets); err == nil {
			t.Fatalf("pairs %v accepted", bad)
		}
	}
}

// TestStockMomentsMatchReferenceRolling pins the bit-identity argument
// at its root: the hoisted per-stock running sums must equal the sums
// the per-pair rolling Pearson would have derived at every step, which
// follows from using the same re-anchored recurrence.
func TestStockMomentsMatchReferenceRolling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, T = 100, 700 // spans several re-anchor blocks
	x := make([]float64, T)
	for i := range x {
		x[i] = 1e-3*rng.NormFloat64() + 0.01
	}
	var mom stockMoments
	computeStockMoments(x, m, &mom)

	// Reference recurrence, transcribed from rollingPearson.
	steps := T - m + 1
	var sx, sxx float64
	for base := 0; base < steps; base += pearsonReanchorEvery {
		sx, sxx = 0, 0
		for i := base; i < base+m; i++ {
			sx += x[i]
			sxx += x[i] * x[i]
		}
		if mom.sum[base] != sx || mom.sumSq[base] != sxx {
			t.Fatalf("anchor %d: moments (%v,%v) want (%v,%v)", base, mom.sum[base], mom.sumSq[base], sx, sxx)
		}
		end := base + pearsonReanchorEvery
		if end > steps {
			end = steps
		}
		for tt := base + 1; tt < end; tt++ {
			ox, nx := x[tt-1], x[tt+m-1]
			sx += nx - ox
			sxx += nx*nx - ox*ox
			if mom.sum[tt] != sx || mom.sumSq[tt] != sxx {
				t.Fatalf("step %d: moments (%v,%v) want (%v,%v)", tt, mom.sum[tt], mom.sumSq[tt], sx, sxx)
			}
		}
	}
}

// TestColdInitSharedMatchesInline asserts the shared per-stock cold
// initialiser path reaches the same fit as the classic inline cold
// start, bitwise.
func TestColdInitSharedMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m = 80
	x := make([]float64, m)
	y := make([]float64, m)
	for i := range x {
		f := rng.NormFloat64()
		x[i] = f + 0.4*rng.NormFloat64()
		y[i] = f + 0.4*rng.NormFloat64()
	}
	est := NewMaronnaEstimator(DefaultMaronnaConfig())
	inline, sc := est.FitScratch(x, y, nil, nil)
	buf := make([]float64, m)
	ix := ColdInitOf(buf, x)
	iy := ColdInitOf(buf, y)
	shared, _ := est.FitScratchShared(x, y, sc, nil, &ix, &iy)
	if inline != shared {
		t.Fatalf("shared cold init fit %+v differs from inline %+v", shared, inline)
	}

	// Degenerate series: zero scale must yield the empty fit both ways.
	flat := make([]float64, m)
	izero := ColdInitOf(buf, flat)
	if izero.Scale != 0 {
		t.Fatalf("constant series scale = %v, want 0", izero.Scale)
	}
	df, _ := est.FitScratchShared(flat, y, sc, nil, &izero, &iy)
	if df != (Fit{}) {
		t.Fatalf("degenerate shared fit = %+v, want zero", df)
	}
}

// TestTileRunSteadyStateZeroAllocs extends the allocation-regression
// gate to the tiled path: once the worker scratch is sized, executing
// a whole tile (both treatments plus Pearson, all window steps) must
// not allocate.
func TestTileRunSteadyStateZeroAllocs(t *testing.T) {
	rets := marketReturns(t, 5, 12)
	const m = 100
	cfg := EngineConfig{M: m, TileSize: 16}
	pairs, outs, err := prepareSeriesRequest(cfg, []Type{Pearson, Maronna, Combined}, rets)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rets)
	req := pairsOf(pairs, n)
	moments := make([]stockMoments, n)
	inits := make([]ColdInit, n)
	buf := make([]float64, m)
	for i := range rets {
		computeStockMoments(rets[i], m, &moments[i])
		inits[i] = ColdInitOf(buf, rets[i][:m])
	}
	tiles := buildTiles(req, cfg.TileSize)
	est := NewMaronnaEstimator(cfg.maronna())
	st := &RobustStats{IterHist: make([]int, cfg.maronna().MaxIter+1)}
	tr := newTileRun(&cfg, tiles[0], req, rets,
		outs[0].Corr, outs[1].Corr, outs[2].Corr, moments, inits, est, nil, st)

	tr.run() // size the scratch
	allocs := testing.AllocsPerRun(3, func() { tr.run() })
	if allocs != 0 {
		t.Fatalf("steady-state tile run allocates %.1f times, want 0", allocs)
	}
}
