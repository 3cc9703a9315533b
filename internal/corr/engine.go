package corr

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"marketminer/internal/sched"
	"marketminer/internal/taq"
)

// EngineConfig configures the sliding-window correlation engine.
type EngineConfig struct {
	// Type selects the measure (the Ctype treatment). Ignored by
	// ComputeSeriesMulti, which takes an explicit treatment list.
	Type Type
	// M is the window length in intervals: "two vectors Xi(s) and
	// Xj(s), containing the last M log-returns".
	M int
	// Workers is the degree of parallelism; ≤ 0 means GOMAXPROCS.
	// This is the Go analogue of the MPI world size in the original
	// MarketMiner correlation engine.
	Workers int
	// Maronna tunes the robust estimator (used by Maronna and
	// Combined); the zero value means DefaultMaronnaConfig.
	Maronna MaronnaConfig
	// Pairs optionally restricts computation to a subset of pairs
	// (canonical ids). Nil means all n(n-1)/2 pairs.
	Pairs []int
	// TileSize bounds the number of pairs per cache tile in the matrix
	// engine; ≤ 0 means DefaultTileSize. Output is bit-identical for
	// every tile size — the knob only trades scheduling granularity
	// against per-tile cache footprint.
	TileSize int
	// RepairPSD, when set, shrinks each online matrix toward the
	// identity until it passes a Cholesky test. Per-pair Maronna
	// estimates do not form a PSD matrix (the defect the paper calls
	// out in its Matlab Approach 2); repair costs O(n³) per matrix
	// and only affects OnlineEngine output.
	RepairPSD bool
	// Float32 opts the batch engines' robust fixed point into the
	// single-precision iteration lane: converge in float32 at a
	// float32-achievable tolerance, then polish the fixed point with
	// full float64 iterations (falling back to the exact float64 path
	// whenever single precision degenerates). Coefficients differ from
	// the exact path by at most the polished residual — the accuracy
	// gate TestFloat32LaneAccuracy and the f32_max_abs_rho_delta bench
	// field bound it. Off (the default) keeps the engine bit-identical
	// to ComputeSeriesMultiReference. The OnlineEngine rejects it: its
	// snapshots are contractually bit-exact.
	Float32 bool
	// DisableSIMD forces this request's batched Maronna kernels onto
	// the pure-Go scalar path even when the process-wide dispatch
	// (CPUID + MM_NOSIMD + SetSIMDMode) would use the vector backend.
	// The f64 tiers are bit-identical, so the flag changes speed only;
	// the bench harness uses it to A/B the tiers in one process. It is
	// deliberately not part of any sweep fingerprint.
	DisableSIMD bool
}

func (c *EngineConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *EngineConfig) maronna() MaronnaConfig {
	if c.Maronna == (MaronnaConfig{}) {
		return DefaultMaronnaConfig()
	}
	return c.Maronna
}

func (c *EngineConfig) tileSize() int {
	if c.TileSize > 0 {
		return c.TileSize
	}
	return DefaultTileSize
}

// RobustStats aggregates how the warm-started Maronna chain behaved
// over one engine run: how many windows were seeded from the previous
// window's converged fit, how many needed the O(m) median/MAD cold
// start, and the distribution of fixed-point iteration counts. It is
// the evidence that warm starting pays: warm windows concentrate at
// 1–3 iterations while cold windows need 10+.
type RobustStats struct {
	// Windows is the number of robust windows fitted.
	Windows int
	// WarmHits counts windows solved by the warm-started run.
	WarmHits int
	// ColdStarts counts windows initialised from median/MAD (the first
	// window of each pair, windows after a degenerate fit, and
	// fallbacks).
	ColdStarts int
	// Fallbacks counts warm-started runs that failed to converge
	// cleanly and were rerun cold (a subset of ColdStarts).
	Fallbacks int
	// IterHist[i] counts windows whose accepted run executed i
	// fixed-point iterations (length MaxIter+1).
	IterHist []int

	// Batched-kernel telemetry. IterHist stays per-pair (it is part of
	// the reference-equality contract); these fields add the batch view
	// so the "where do the cycles go" profile remains measurable after
	// batching: one sweep applies one fixed-point iteration to every
	// lane of a batch's active set.
	//
	// BatchSweeps counts sweeps executed, BatchLaneSteps sums the
	// active-set size over them (total per-lane iteration steps), and
	// ActiveHist[a] counts sweeps that ran with a active lanes.
	BatchSweeps    int
	BatchLaneSteps int
	ActiveHist     []int

	// SIMD wall-clock telemetry, populated only while SetSIMDProfiling
	// is on (the bench harness measuring the transpose overhead).
	// SIMDPackNs is time spent packing windows into the lane-major
	// tiles; SIMDRunNs is the remainder of the vector batch runs.
	// Excluded from bit-identity comparisons: wall-clock is not part of
	// the reference-equality contract.
	SIMDPackNs int64
	SIMDRunNs  int64
}

// recordSweep records one batched sweep over active lanes.
func (s *RobustStats) recordSweep(active int) {
	s.BatchSweeps++
	s.BatchLaneSteps += active
	if active >= len(s.ActiveHist) {
		s.ActiveHist = append(s.ActiveHist, make([]int, active+1-len(s.ActiveHist))...)
	}
	s.ActiveHist[active]++
}

// MeanActiveLanes returns the average active-set size per batched
// sweep — the occupancy evidence that swap-to-end compaction keeps
// late-converging pairs from serializing the batch.
func (s *RobustStats) MeanActiveLanes() float64 {
	if s.BatchSweeps == 0 {
		return 0
	}
	return float64(s.BatchLaneSteps) / float64(s.BatchSweeps)
}

func (s *RobustStats) record(f Fit, attemptedWarm bool) {
	s.Windows++
	if f.Seeded {
		s.WarmHits++
	} else {
		s.ColdStarts++
		if attemptedWarm {
			s.Fallbacks++
		}
	}
	if f.Iters < len(s.IterHist) {
		s.IterHist[f.Iters]++
	}
}

// Merge folds another run's statistics into s, extending the
// iteration histogram as needed. The sweep orchestrator uses it to
// aggregate warm-start telemetry across many per-block engine passes.
func (s *RobustStats) Merge(o *RobustStats) {
	s.Windows += o.Windows
	s.WarmHits += o.WarmHits
	s.ColdStarts += o.ColdStarts
	s.Fallbacks += o.Fallbacks
	if len(s.IterHist) < len(o.IterHist) {
		s.IterHist = append(s.IterHist, make([]int, len(o.IterHist)-len(s.IterHist))...)
	}
	for i, c := range o.IterHist {
		s.IterHist[i] += c
	}
	s.BatchSweeps += o.BatchSweeps
	s.BatchLaneSteps += o.BatchLaneSteps
	if len(s.ActiveHist) < len(o.ActiveHist) {
		s.ActiveHist = append(s.ActiveHist, make([]int, len(o.ActiveHist)-len(s.ActiveHist))...)
	}
	for i, c := range o.ActiveHist {
		s.ActiveHist[i] += c
	}
	s.SIMDPackNs += o.SIMDPackNs
	s.SIMDRunNs += o.SIMDRunNs
}

// MeanIters returns the average iteration count per window.
func (s *RobustStats) MeanIters() float64 {
	if s.Windows == 0 {
		return 0
	}
	var total int
	for i, c := range s.IterHist {
		total += i * c
	}
	return float64(total) / float64(s.Windows)
}

// Series holds per-pair correlation time series over one trading day:
// Corr[k][t] is the coefficient of pair Pairs[k] at grid interval
// FirstS + t. It is the dataset the paper's Matlab Approach 1 tried to
// reconstruct from 680 dumped matrices per day and ran out of memory.
type Series struct {
	Type   Type
	M      int
	FirstS int   // grid interval of the first coefficient (= M)
	Pairs  []int // canonical pair ids, ascending
	N      int   // universe order
	Corr   [][]float64
	// Robust carries the warm-start iteration statistics of the run
	// that produced this series (nil for Pearson). When Maronna and
	// Combined are computed in one fused pass both series share the
	// same stats object.
	Robust *RobustStats
}

// Len returns the number of intervals covered.
func (s *Series) Len() int {
	if len(s.Corr) == 0 {
		return 0
	}
	return len(s.Corr[0])
}

// PairSeries returns the coefficient series for a canonical pair id,
// or nil if the pair was not computed.
func (s *Series) PairSeries(pairID int) []float64 {
	for k, id := range s.Pairs {
		if id == pairID {
			return s.Corr[k]
		}
	}
	return nil
}

// ComputeSeries runs the engine over one day of log-returns for a
// single treatment (cfg.Type). It is a thin wrapper over
// ComputeSeriesMulti; see there for the computation contract.
func ComputeSeries(cfg EngineConfig, returns [][]float64) (*Series, error) {
	ss, err := ComputeSeriesMulti(cfg, []Type{cfg.Type}, returns)
	if err != nil {
		return nil, err
	}
	return ss[0], nil
}

// ComputeSeriesMulti runs the engine over one day of log-returns and
// produces one Series per requested treatment in a single pass.
// returns[i][u] is stock i's log-return at return index u (grid
// interval u+1); all rows must have equal length T ≥ M. Each resulting
// Series covers grid intervals M .. T (inclusive), i.e. T−M+1 values
// per pair.
//
// Since the matrix-level engine landed this is a thin wrapper over
// ComputeMatrixSeries — per-stock sliding statistics are hoisted out of
// the per-pair loop, the pair triangle is tiled into cache-sized
// blocks, and tiles are scheduled by work stealing. Results are
// bit-deterministic and identical to ComputeSeriesMultiReference for
// every worker count and tile size.
func ComputeSeriesMulti(cfg EngineConfig, types []Type, returns [][]float64) ([]*Series, error) {
	return ComputeMatrixSeries(cfg, types, returns)
}

// prepareSeriesRequest validates an engine request and allocates the
// output series, shared by the matrix engine and the per-pair
// reference.
func prepareSeriesRequest(cfg EngineConfig, types []Type, returns [][]float64) (pairs []int, outs []*Series, err error) {
	if len(types) == 0 {
		return nil, nil, errors.New("corr: no correlation types requested")
	}
	n := len(returns)
	if n < 2 {
		return nil, nil, errors.New("corr: need at least 2 stocks")
	}
	T := len(returns[0])
	for i, row := range returns {
		if len(row) != T {
			return nil, nil, fmt.Errorf("corr: stock %d has %d returns, want %d", i, len(row), T)
		}
	}
	if cfg.M < 2 {
		return nil, nil, fmt.Errorf("corr: window M=%d too small", cfg.M)
	}
	if T < cfg.M {
		return nil, nil, fmt.Errorf("corr: %d returns < window M=%d", T, cfg.M)
	}
	for i, row := range returns {
		for u, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, nil, fmt.Errorf("corr: stock %d has non-finite return at %d", i, u)
			}
		}
	}
	seen := map[Type]bool{}
	for _, ty := range types {
		switch ty {
		case Pearson, Maronna, Combined:
		default:
			return nil, nil, fmt.Errorf("corr: unsupported series type %v", ty)
		}
		if seen[ty] {
			return nil, nil, fmt.Errorf("corr: duplicate series type %v", ty)
		}
		seen[ty] = true
	}

	pairs = cfg.Pairs
	for _, id := range pairs {
		if id < 0 || id >= n*(n-1)/2 {
			return nil, nil, fmt.Errorf("corr: pair id %d outside [0,%d)", id, n*(n-1)/2)
		}
	}
	if pairs == nil {
		pairs = make([]int, n*(n-1)/2)
		for i := range pairs {
			pairs[i] = i
		}
	}
	steps := T - cfg.M + 1
	outs = make([]*Series, len(types))
	for oi, ty := range types {
		s := &Series{Type: ty, M: cfg.M, FirstS: cfg.M, Pairs: pairs, N: n, Corr: make([][]float64, len(pairs))}
		for k := range s.Corr {
			s.Corr[k] = make([]float64, steps)
		}
		outs[oi] = s
	}
	return pairs, outs, nil
}

// ComputeSeriesMultiReference is the pre-matrix per-pair engine: a
// static range split of the pair list across workers, each pair
// computing its own sliding statistics from scratch. It is retained as
// the verification baseline the matrix engine must match bit-for-bit
// (TestMatrixEngineMatchesReference) and as the comparison point for
// the sharing+tiling speedup reported in BENCH_corr.json. New code
// should call ComputeSeriesMulti.
func ComputeSeriesMultiReference(cfg EngineConfig, types []Type, returns [][]float64) ([]*Series, error) {
	pairs, outs, err := prepareSeriesRequest(cfg, types, returns)
	if err != nil {
		return nil, err
	}
	n := len(returns)
	allPairs := taq.AllPairs(n)
	workers := cfg.workers()
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	robust := false
	for _, ty := range types {
		if ty == Maronna || ty == Combined {
			robust = true
		}
	}
	var workerStats []RobustStats
	if robust {
		workerStats = make([]RobustStats, workers)
		for w := range workerStats {
			workerStats[w].IterHist = make([]int, cfg.maronna().MaxIter+1)
		}
	}
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var st *RobustStats
			if robust {
				st = &workerStats[w]
			}
			computePairRange(cfg, types, returns, allPairs, pairs, outs, st, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()

	if robust {
		total := &RobustStats{IterHist: make([]int, cfg.maronna().MaxIter+1)}
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

// computePairRange fills outs[*].Corr[lo:hi] for every requested
// treatment. The robust treatments share one warm-started fit per
// window; st (non-nil iff a robust treatment is requested) collects the
// iteration statistics of this worker's shard.
func computePairRange(cfg EngineConfig, types []Type, returns [][]float64, allPairs []taq.Pair, pairs []int, outs []*Series, st *RobustStats, lo, hi int) {
	m := cfg.M
	T := len(returns[0])
	var pearsonDst, maronnaDst, combinedDst [][]float64
	for oi, ty := range types {
		switch ty {
		case Pearson:
			pearsonDst = outs[oi].Corr
		case Maronna:
			maronnaDst = outs[oi].Corr
		case Combined:
			combinedDst = outs[oi].Corr
		}
	}

	var est *MaronnaEstimator
	var sc *Scratch
	if maronnaDst != nil || combinedDst != nil {
		est = NewMaronnaEstimator(cfg.maronna())
	}
	for k := lo; k < hi; k++ {
		p := allPairs[pairs[k]]
		x, y := returns[p.I], returns[p.J]
		if pearsonDst != nil {
			rollingPearson(x, y, m, pearsonDst[k])
		}
		if est == nil {
			continue
		}
		// One robust fit per window, warm-started from the previous
		// window's converged state; each pair starts its own chain.
		var warm Fit
		for t := 0; t+m <= T; t++ {
			attempted := warm.Valid
			var f Fit
			f, sc = est.FitScratch(x[t:t+m], y[t:t+m], sc, &warm)
			st.record(f, attempted)
			if maronnaDst != nil {
				maronnaDst[k][t] = f.Rho
			}
			if combinedDst != nil {
				combinedDst[k][t] = CombinedFromFit(x[t:t+m], y[t:t+m], f.Rho, sc.Weights())
			}
			warm = f
		}
	}
}

// pearsonReanchorEvery bounds floating-point drift in the O(1) rolling
// Pearson updates: the five running sums are recomputed from the raw
// window every this-many steps, so rounding error cannot accumulate
// over more than one block (a full 780-interval day would otherwise
// compound 779 incremental updates).
const pearsonReanchorEvery = 128

// rollingPearson fills dst[t] with the Pearson correlation of
// x[t:t+m], y[t:t+m] using O(1) sliding-window updates, re-anchoring
// the running sums from scratch every pearsonReanchorEvery steps.
func rollingPearson(x, y []float64, m int, dst []float64) {
	steps := len(x) - m + 1
	fm := float64(m)
	var sx, sy, sxx, syy, sxy float64
	// The normaliser is factored as 1/√vx · 1/√vy (not 1/√(vx·vy)) so
	// the matrix engine can hoist each factor per stock and stay
	// bit-identical to this reference; pearsonInvStd is that exact
	// shared expression.
	emit := func(t int) {
		rx := pearsonInvStd(sxx, sx, fm)
		ry := pearsonInvStd(syy, sy, fm)
		if rx == 0 || ry == 0 {
			dst[t] = 0
			return
		}
		dst[t] = clampCorr((sxy - sx*sy/fm) * rx * ry)
	}
	for base := 0; base < steps; base += pearsonReanchorEvery {
		sx, sy, sxx, syy, sxy = 0, 0, 0, 0, 0
		for i := base; i < base+m; i++ {
			sx += x[i]
			sy += y[i]
			sxx += x[i] * x[i]
			syy += y[i] * y[i]
			sxy += x[i] * y[i]
		}
		emit(base)
		end := base + pearsonReanchorEvery
		if end > steps {
			end = steps
		}
		for t := base + 1; t < end; t++ {
			ox, oy := x[t-1], y[t-1]
			nx, ny := x[t+m-1], y[t+m-1]
			sx += nx - ox
			sy += ny - oy
			sxx += nx*nx - ox*ox
			syy += ny*ny - oy*oy
			sxy += nx*ny - ox*oy
			emit(t)
		}
	}
}

// OnlineEngine is the streaming form used by the Figure-1 pipeline: it
// ingests one cross-sectional return vector per grid interval and, once
// M vectors have arrived, produces the full correlation matrix of the
// trailing window after every push — "large correlation matrices in an
// online fashion".
//
// When EngineConfig.Pairs is set the engine computes only that subset
// of the pair triangle (unselected matrix slots stay 0). This is the
// partition seam the signal broker builds on: each partition processor
// owns one pair subset with its own warm state, and Snapshot/Restore
// of a subset engine is its complete per-partition state store.
// Selected-pair coefficients are bit-identical to a full engine's.
type OnlineEngine struct {
	cfg     EngineConfig
	n       int
	windows [][]float64 // ring buffers, one per stock
	head    int
	count   int
	scratch [][]float64 // contiguous window copies, one per stock
	pool    []*pairBatch // per-worker batched robust kernels
	pairs   []taq.Pair  // cached pair table
	sel     []int       // selected canonical pair ids (identity when cfg.Pairs is nil)
	fits    []Fit       // per-pair warm-start state (robust types only)

	// Matrix-level shared state, refreshed per push: tiles over the
	// pair triangle, per-stock window sums (Pearson) and per-stock
	// robust cold-start initialisers (robust types, computed only on
	// pushes where some pair actually needs a cold start).
	tiles    [][]int
	est      *MaronnaEstimator
	sums     []float64
	sumSqs   []float64
	invs     []float64
	inits    []ColdInit
	initBuf  []float64
	haveInit bool
}

// NewOnlineEngine builds a streaming engine over an n-stock universe.
func NewOnlineEngine(cfg EngineConfig, n int) (*OnlineEngine, error) {
	if n < 2 {
		return nil, errors.New("corr: need at least 2 stocks")
	}
	if cfg.M < 2 {
		return nil, fmt.Errorf("corr: window M=%d too small", cfg.M)
	}
	if cfg.Float32 {
		// Online snapshots (the broker's state store) are contractually
		// bit-exact; the approximate lane is an offline accelerator.
		return nil, errors.New("corr: Float32 lane is not supported by the online engine")
	}
	e := &OnlineEngine{cfg: cfg, n: n}
	e.windows = make([][]float64, n)
	e.scratch = make([][]float64, n)
	for i := range e.windows {
		e.windows[i] = make([]float64, cfg.M)
		e.scratch[i] = make([]float64, cfg.M)
	}
	e.pool = make([]*pairBatch, cfg.workers())
	e.pairs = taq.AllPairs(n)
	var pairIdx []int
	if cfg.Pairs != nil {
		// Subset mode: compute only the selected pairs. PSD repair is a
		// whole-matrix operation and cannot be meaningful on a partial
		// triangle, so the combination is rejected outright.
		if cfg.RepairPSD {
			return nil, errors.New("corr: Pairs subset and RepairPSD are incompatible")
		}
		if len(cfg.Pairs) == 0 {
			return nil, errors.New("corr: empty pair subset")
		}
		sel := append([]int(nil), cfg.Pairs...)
		for i, id := range sel {
			if id < 0 || id >= len(e.pairs) {
				return nil, fmt.Errorf("corr: pair id %d outside [0,%d)", id, len(e.pairs))
			}
			if i > 0 && id <= sel[i-1] {
				return nil, fmt.Errorf("corr: pair subset not strictly ascending at index %d", i)
			}
		}
		pairIdx = sel
	} else {
		pairIdx = make([]int, len(e.pairs))
		for i := range pairIdx {
			pairIdx[i] = i
		}
	}
	e.sel = pairIdx
	e.tiles = buildTiles(pairsOf(pairIdx, n), cfg.tileSize())
	// buildTiles returns positions into pairIdx; remap them to canonical
	// pair ids so matrix() indexes e.pairs/e.fits/Matrix slots uniformly
	// whether or not a subset is selected.
	for _, tile := range e.tiles {
		for i, pos := range tile {
			tile[i] = pairIdx[pos]
		}
	}
	switch cfg.Type {
	case Pearson:
		e.sums = make([]float64, n)
		e.sumSqs = make([]float64, n)
		e.invs = make([]float64, n)
	case Maronna, Combined:
		// Successive pushes slide each pair's window by one point, so
		// the previous matrix's converged fits seed the next one.
		e.fits = make([]Fit, len(e.pairs))
		e.est = NewMaronnaEstimator(cfg.maronna())
		e.inits = make([]ColdInit, n)
		e.initBuf = make([]float64, cfg.M)
	}
	return e, nil
}

// Ready reports whether M vectors have been pushed.
func (e *OnlineEngine) Ready() bool { return e.count >= e.cfg.M }

// Push ingests the return vector for one interval (len n). It returns
// the correlation matrix of the trailing M-interval window, or nil
// while the window is still warming up.
func (e *OnlineEngine) Push(rets []float64) (*Matrix, error) {
	m := NewMatrix(e.n)
	if ready, err := e.PushInto(rets, m); err != nil || !ready {
		return nil, err
	}
	return m, nil
}

// PushInto is Push writing the matrix into dst (order n), for a caller
// that consumes each matrix before the next push and so can reuse one.
// It reports whether the window is full; until then dst is untouched.
// Only the engine's selected pairs are written, so the unselected
// slots of a subset engine's dst keep whatever they held.
func (e *OnlineEngine) PushInto(rets []float64, dst *Matrix) (ready bool, err error) {
	if len(rets) != e.n {
		return false, fmt.Errorf("corr: vector length %d, want %d", len(rets), e.n)
	}
	if dst.n != e.n {
		return false, fmt.Errorf("corr: destination matrix of order %d, want %d", dst.n, e.n)
	}
	for i, x := range rets {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false, fmt.Errorf("corr: non-finite return for stock %d", i)
		}
		e.windows[i][e.head] = x
	}
	e.head = (e.head + 1) % e.cfg.M
	if e.count < e.cfg.M {
		e.count++
	}
	if !e.Ready() {
		return false, nil
	}
	// Unroll the rings into contiguous scratch, oldest first.
	for i := range e.windows {
		w := e.windows[i]
		s := e.scratch[i]
		k := copy(s, w[e.head:])
		copy(s[k:], w[:e.head])
	}
	e.matrix(dst)
	if e.cfg.RepairPSD {
		if repaired, _, _ := EnsurePSD(dst, 1e-10); repaired != dst {
			copy(dst.vals, repaired.vals)
		}
	}
	return true, nil
}

// matrix computes all pairwise coefficients of the current scratch
// windows: per-stock state first (window sums for Pearson, cold
// initialisers for the robust types when some pair needs one), then
// cache tiles of pairs scheduled across workers by work stealing.
// Every pair owns its matrix slot and warm-fit entry and worker
// batch kernels are exchanged only through the steal pool's
// happens-before, so any schedule yields the same matrix. Every
// selected pair's slot of m is written.
func (e *OnlineEngine) matrix(m *Matrix) {
	pairs := e.pairs
	workers := len(e.pool)
	if workers > len(e.tiles) {
		workers = len(e.tiles)
	}
	switch e.cfg.Type {
	case Pearson:
		// Univariate sums and normalisers once per stock per push; each
		// pair then computes only the cross moment. Per-sum addition
		// order is identical to PearsonCorr's fused loop, so
		// coefficients are bit-identical to the per-pair form.
		fn := float64(e.cfg.M)
		for i, s := range e.scratch {
			var sx, sxx float64
			for _, v := range s {
				sx += v
				sxx += v * v
			}
			e.sums[i], e.sumSqs[i] = sx, sxx
			e.invs[i] = pearsonInvStd(sxx, sx, fn)
		}
		sched.Steal(workers, len(e.tiles), func(w, ti int) {
			for _, k := range e.tiles[ti] {
				p := pairs[k]
				x, y := e.scratch[p.I], e.scratch[p.J]
				var sxy float64
				for i := range x {
					sxy += x[i] * y[i]
				}
				rx, ry := e.invs[p.I], e.invs[p.J]
				if rx == 0 || ry == 0 {
					m.SetPair(k, 0)
					continue
				}
				m.SetPair(k, clampCorr((sxy-e.sums[p.I]*e.sums[p.J]/fn)*rx*ry))
			}
		})
	case Maronna, Combined:
		// Shared cold initialisers are only worth refreshing on pushes
		// where some chain actually restarts (the first ready window,
		// and after degenerate fits); mid-stream warm fallbacks are
		// rare and recompute inline, which yields identical values.
		e.haveInit = false
		for _, k := range e.sel {
			if !e.fits[k].Valid {
				for i, s := range e.scratch {
					e.inits[i] = ColdInitOf(e.initBuf, s)
				}
				e.haveInit = true
				break
			}
		}
		sched.Steal(workers, len(e.tiles), func(w, ti int) {
			b := e.pool[w]
			if b == nil {
				b = newPairBatch(e.est.Config(), !e.cfg.DisableSIMD)
				e.pool[w] = b
			}
			tile := e.tiles[ti]
			b.begin(e.cfg.M, len(tile))
			for li, k := range tile {
				p := pairs[k]
				var ix, iy *ColdInit
				if e.haveInit {
					ix, iy = &e.inits[p.I], &e.inits[p.J]
				}
				b.add(e.scratch[p.I], e.scratch[p.J], &e.fits[k], ix, iy, li, nil)
			}
			b.run(nil)
			for li, k := range tile {
				p := pairs[k]
				f := b.fits[li]
				e.fits[k] = f
				c := f.Rho
				if e.cfg.Type == Combined {
					c = CombinedFromFit(e.scratch[p.I], e.scratch[p.J], f.Rho, b.wOut[li])
				}
				m.SetPair(k, c)
			}
		})
	}
}
