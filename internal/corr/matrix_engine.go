package corr

import (
	"math"
	"sync"

	"marketminer/internal/sched"
	"marketminer/internal/taq"
)

// The matrix-level engine. The per-pair engine (now
// ComputeSeriesMultiReference) treats every pair as an island: each of
// the ~n²/2 pairs re-derives the sliding statistics of its two member
// stocks — five rolling Pearson sums of which four are univariate, and
// the median/MAD initialisers that seed every cold Maronna fit. At
// matrix level that work is shared: a stock's window sums and robust
// initialisers are the same in all ~n−1 pairs containing it, so this
// engine computes them once per stock per window (O(n) work) and the
// per-pair loop touches only genuinely bivariate state (the cross
// moment Σxy and the warm Maronna chain).
//
// Pairs are grouped into cache tiles — blocks of the pair triangle
// induced by splitting the stock axis into runs of tileDim stocks — so
// a tile's inner loop re-reads the same few stock rows while they are
// hot. Tiles are scheduled by work stealing (sched.Steal) because the
// robust fixed point's iteration count varies ~3× between windows and
// a static split strands workers behind the slowest range.
//
// Determinism: every pair owns its output row and its warm-chain state,
// each tile is executed by exactly one worker, and the per-window
// arithmetic is literally the reference engine's expressions evaluated
// on identically-derived inputs — so output is bit-identical to the
// reference for every worker count and tile size, which is what keeps
// the sharded sweep's byte-determinism guarantee intact.

// DefaultTileSize is the pair budget per cache tile (a tile of
// tileDim² pairs spans 2·tileDim stock rows ≈ 13 KB of window data at
// M = 100, comfortably L1-resident alongside the tile's warm state).
const DefaultTileSize = 64

// tileDim converts a pair budget into the stock-block edge length.
func tileDim(tileSize int) int {
	d := int(math.Sqrt(float64(tileSize)))
	if d < 1 {
		d = 1
	}
	return d
}

// pairsOf resolves canonical pair ids to their stock pairs in an
// n-stock universe, in request order. It walks the pair triangle row
// by row, so an ascending request (every caller's) costs O(n + len(ids))
// instead of building the whole n(n−1)/2 table; a step backwards
// restarts the walk.
func pairsOf(ids []int, n int) []taq.Pair {
	out := make([]taq.Pair, len(ids))
	i, rowStart := 0, 0 // row i holds ids [rowStart, rowStart+n-1-i)
	for k, id := range ids {
		if id < rowStart {
			i, rowStart = 0, 0
		}
		for id >= rowStart+n-1-i {
			rowStart += n - 1 - i
			i++
		}
		out[k] = taq.Pair{I: i, J: i + 1 + id - rowStart}
	}
	return out
}

// buildTiles groups the requested pairs (req[k] is request k's stock
// pair) by their (⌊i/dim⌋, ⌊j/dim⌋) stock-block coordinates, preserving
// request order within a tile. Tile identity never affects values,
// only locality, so any grouping is correct; this one maximises
// stock-row reuse.
func buildTiles(req []taq.Pair, tileSize int) [][]int {
	dim := tileDim(tileSize)
	index := make(map[[2]int]int)
	var tiles [][]int
	for k, p := range req {
		key := [2]int{p.I / dim, p.J / dim}
		ti, ok := index[key]
		if !ok {
			ti = len(tiles)
			index[key] = ti
			tiles = append(tiles, nil)
		}
		tiles[ti] = append(tiles[ti], k)
	}
	return tiles
}

// stockMoments holds one stock's sliding-window statistics for every
// window step: the running sum and the normaliser rollingPearsonShared
// reads. They are computed with the exact re-anchored recurrence the
// per-pair reference uses (rollingPearson), so every downstream
// expression sees bit-identical inputs.
type stockMoments struct {
	sum []float64 // Σx over window t
	inv []float64 // 1/√(Σx² − (Σx)²/m) over window t; 0 when degenerate
}

// pearsonInvStd is the shared univariate normaliser 1/√(sxx − sx²/m),
// or 0 when the variance is non-positive. The per-pair reference emit
// uses this exact expression inline, so hoisting it per stock is
// bit-neutral.
func pearsonInvStd(sxx, sx, fm float64) float64 {
	v := sxx - sx*sx/fm
	if v <= 0 {
		return 0
	}
	return 1 / math.Sqrt(v)
}

// computeStockMoments fills mom for series x and window length m,
// re-anchoring the running sums every pearsonReanchorEvery steps
// exactly as the reference does.
func computeStockMoments(x []float64, m int, mom *stockMoments) {
	steps := len(x) - m + 1
	fm := float64(m)
	mom.sum = make([]float64, steps)
	mom.inv = make([]float64, steps)
	var sx, sxx float64
	for base := 0; base < steps; base += pearsonReanchorEvery {
		sx, sxx = 0, 0
		for i := base; i < base+m; i++ {
			sx += x[i]
			sxx += x[i] * x[i]
		}
		mom.sum[base] = sx
		mom.inv[base] = pearsonInvStd(sxx, sx, fm)
		end := base + pearsonReanchorEvery
		if end > steps {
			end = steps
		}
		for t := base + 1; t < end; t++ {
			ox, nx := x[t-1], x[t+m-1]
			sx += nx - ox
			sxx += nx*nx - ox*ox
			mom.sum[t] = sx
			mom.inv[t] = pearsonInvStd(sxx, sx, fm)
		}
	}
}

// Day is one trading day of log-returns prepared for the matrix
// engine: validated once by NewDay, it serves any number of Series
// requests — the pair blocks and windows of a sweep day — and computes
// each stock's sliding moments at most once per window length M, the
// first time a request touches the stock. A stock's moments are the
// same in every pair containing it, so a block of p pairs over about p
// stocks no longer pays as much moment work as pair work. Memory is
// 2 × steps × 8 bytes per (stock, M) filled: about 13 MB for a
// 400-stock, 780-interval day at three windows.
//
// A Day is safe for concurrent use: each M's table fills under its own
// lock, and a filled entry never changes again.
type Day struct {
	returns [][]float64

	mu  sync.Mutex
	byM map[int]*dayMoments
}

// dayMoments is one window length's per-stock moment table.
type dayMoments struct {
	mu    sync.Mutex
	stock []stockMoments // by stock; sum == nil until filled
}

// moments returns the window-m moment table with every stock marked
// in used filled.
func (d *Day) moments(m int, used []bool) []stockMoments {
	d.mu.Lock()
	dm := d.byM[m]
	if dm == nil {
		dm = &dayMoments{stock: make([]stockMoments, len(d.returns))}
		d.byM[m] = dm
	}
	d.mu.Unlock()

	dm.mu.Lock()
	defer dm.mu.Unlock()
	for i, u := range used {
		if u && dm.stock[i].sum == nil {
			computeStockMoments(d.returns[i], m, &dm.stock[i])
		}
	}
	return dm.stock
}

// tileRun is the execution state of one tile: per-pair views of the
// inputs, outputs and shared per-stock state. Pearson runs pair-major
// (each pair slides through the day in a tight inner loop); the robust
// treatments run window-major through the batched kernel — all of the
// tile's pairs advance through window t as lanes of one pairBatch, so
// the fixed-point sweeps stream over the tile's hot stock rows.
type tileRun struct {
	m     int
	steps int
	est   *MaronnaEstimator // nil when no robust treatment is requested
	batch *pairBatch        // worker-owned batched kernel (robust only)
	st    *RobustStats
	warm  []Fit // per-lane warm-chain state across windows

	xs, ys           [][]float64     // member-stock return rows
	outP, outM, outC [][]float64     // output rows (nil treatment-wise)
	momX, momY       []*stockMoments // shared univariate moments
	initX, initY     []*ColdInit     // shared t=0 robust initialisers
}

// newTileRun binds tile (a set of request indices into req) to its
// inputs, outputs and shared per-stock state. batch is the calling
// worker's reusable kernel; nil allocates a fresh one.
func newTileRun(cfg *EngineConfig, tile []int, req []taq.Pair,
	returns [][]float64, outP, outM, outC [][]float64,
	moments []stockMoments, inits []ColdInit,
	est *MaronnaEstimator, batch *pairBatch, st *RobustStats) *tileRun {

	steps := len(returns[0]) - cfg.M + 1
	tr := &tileRun{m: cfg.M, steps: steps, est: est, st: st}
	np := len(tile)
	tr.xs = make([][]float64, np)
	tr.ys = make([][]float64, np)
	if outP != nil {
		tr.outP = make([][]float64, np)
		tr.momX = make([]*stockMoments, np)
		tr.momY = make([]*stockMoments, np)
	}
	if est != nil {
		if batch == nil {
			batch = newPairBatch(est.Config(), !cfg.DisableSIMD)
		}
		tr.batch = batch
		tr.warm = make([]Fit, np)
		tr.initX = make([]*ColdInit, np)
		tr.initY = make([]*ColdInit, np)
		if outM != nil {
			tr.outM = make([][]float64, np)
		}
		if outC != nil {
			tr.outC = make([][]float64, np)
		}
	}
	for l, k := range tile {
		p := req[k]
		tr.xs[l] = returns[p.I]
		tr.ys[l] = returns[p.J]
		if outP != nil {
			tr.outP[l] = outP[k]
			tr.momX[l] = &moments[p.I]
			tr.momY[l] = &moments[p.J]
		}
		if est != nil {
			if outM != nil {
				tr.outM[l] = outM[k]
			}
			if outC != nil {
				tr.outC[l] = outC[k]
			}
			tr.initX[l] = &inits[p.I]
			tr.initY[l] = &inits[p.J]
		}
	}
	return tr
}

// rollingPearsonShared is rollingPearson with the four univariate sums
// replaced by reads of the shared per-stock moments: only the cross
// moment Σxy rolls per pair. Same recurrence, re-anchor cadence and
// emit expression as the reference, so dst is bit-identical to it.
func rollingPearsonShared(x, y []float64, m int, dst []float64, mx, my *stockMoments) {
	steps := len(x) - m + 1
	fm := float64(m)
	sums, invX := mx.sum, mx.inv
	sumY, invY := my.sum, my.inv
	var sxy float64
	emit := func(t int) {
		rx, ry := invX[t], invY[t]
		if rx == 0 || ry == 0 {
			dst[t] = 0
			return
		}
		dst[t] = clampCorr((sxy - sums[t]*sumY[t]/fm) * rx * ry)
	}
	for base := 0; base < steps; base += pearsonReanchorEvery {
		sxy = 0
		for i := base; i < base+m; i++ {
			sxy += x[i] * y[i]
		}
		emit(base)
		end := base + pearsonReanchorEvery
		if end > steps {
			end = steps
		}
		for t := base + 1; t < end; t++ {
			sxy += x[t+m-1]*y[t+m-1] - x[t-1]*y[t-1]
			emit(t)
		}
	}
}

// runRobust slides every pair of the tile through the day window-major:
// at each step t the tile's pairs are enqueued as lanes of the batched
// kernel, one batch run resolves them all, and each lane's accepted fit
// both fills the output row and seeds the lane's warm chain for t+1.
// The t=0 cold start (every pair takes it) reuses the shared per-stock
// initialisers; later cold fallbacks recompute inline inside the batch,
// which yields the same values.
func (tr *tileRun) runRobust() {
	b := tr.batch
	m := tr.m
	b.begin(m, len(tr.xs))
	for t := 0; t < tr.steps; t++ {
		for l := range tr.xs {
			var ix, iy *ColdInit
			if t == 0 {
				ix, iy = tr.initX[l], tr.initY[l]
			}
			b.add(tr.xs[l][t:t+m], tr.ys[l][t:t+m], &tr.warm[l], ix, iy, l, tr.st)
		}
		b.run(tr.st)
		for l := range tr.xs {
			f := b.fits[l]
			tr.warm[l] = f
			if tr.outM != nil {
				tr.outM[l][t] = f.Rho
			}
			if tr.outC != nil {
				xw, yw := tr.xs[l][t:t+m], tr.ys[l][t:t+m]
				tr.outC[l][t] = CombinedFromFit(xw, yw, f.Rho, b.wOut[l])
			}
		}
	}
}

// run executes every pair of the tile over all window steps. After
// warmup (batch sized) it allocates nothing — the steady-state
// zero-alloc gate covers it.
func (tr *tileRun) run() {
	for l := range tr.xs {
		if tr.outP != nil {
			rollingPearsonShared(tr.xs[l], tr.ys[l], tr.m, tr.outP[l], tr.momX[l], tr.momY[l])
		}
	}
	if tr.est != nil {
		tr.runRobust()
	}
}

// Series computes the correlation series of every requested pair for
// every requested treatment in one matrix-level pass: per-stock
// sliding statistics read from the day's shared table, the pair
// triangle tiled into cache-sized blocks, and tiles scheduled across
// workers by work stealing. See the comment at the top of this file
// for the sharing/tiling/determinism design.
//
// Output is bit-identical to ComputeSeriesMultiReference for every
// worker count, tile size and request order.
func (d *Day) Series(cfg EngineConfig, types []Type) ([]*Series, error) {
	pairs, outs, err := d.request(cfg, types)
	if err != nil {
		return nil, err
	}
	returns := d.returns
	n := len(returns)
	req := pairsOf(pairs, n)

	var outP, outM, outC [][]float64
	for oi, ty := range types {
		switch ty {
		case Pearson:
			outP = outs[oi].Corr
		case Maronna:
			outM = outs[oi].Corr
		case Combined:
			outC = outs[oi].Corr
		}
	}
	robust := outM != nil || outC != nil

	// Mark the stocks the request actually touches; pair-block subsets
	// (the sweep orchestrator's unit of work) only pay for theirs.
	used := make([]bool, n)
	for _, p := range req {
		used[p.I] = true
		used[p.J] = true
	}

	// Shared per-stock state: the day's moment table, filled for the
	// stocks this request is the first to touch, and the robust cold
	// initialisers. O(n·steps) work against the per-pair phase's
	// O(n²·steps); serial keeps it trivially deterministic.
	var moments []stockMoments
	if outP != nil {
		moments = d.moments(cfg.M, used)
	}
	var inits []ColdInit
	if robust {
		inits = make([]ColdInit, n)
		buf := make([]float64, cfg.M)
		for i, u := range used {
			if u {
				inits[i] = ColdInitOf(buf, returns[i][:cfg.M])
			}
		}
	}

	tiles := buildTiles(req, cfg.tileSize())
	workers := cfg.workers()
	if workers > len(tiles) {
		workers = len(tiles)
	}
	if workers < 1 {
		workers = 1
	}

	var est *MaronnaEstimator
	var workerStats []RobustStats
	if robust {
		est = NewMaronnaEstimator(DefaultMaronnaConfig())
		workerStats = make([]RobustStats, workers)
		for w := range workerStats {
			workerStats[w].IterHist = make([]int, DefaultMaronnaConfig().MaxIter+1)
		}
	}
	workerBatch := make([]*pairBatch, workers)

	sched.Steal(workers, len(tiles), func(w, ti int) {
		var st *RobustStats
		if robust {
			st = &workerStats[w]
		}
		tr := newTileRun(&cfg, tiles[ti], req, returns,
			outP, outM, outC, moments, inits, est, workerBatch[w], st)
		tr.run()
		workerBatch[w] = tr.batch
	})

	if robust {
		total := &RobustStats{IterHist: make([]int, DefaultMaronnaConfig().MaxIter+1)}
		for w := range workerStats {
			total.Merge(&workerStats[w])
		}
		for oi, ty := range types {
			if ty == Maronna || ty == Combined {
				outs[oi].Robust = total
			}
		}
	}
	return outs, nil
}
