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
	// Pairs optionally restricts the batch engine (ComputeSeries and
	// its kin) to a subset of pairs (canonical ids). Nil means all
	// n(n-1)/2 pairs. NewOnlineEngine rejects it: the online engine
	// always computes the whole triangle.
	Pairs []int
	// DisableSIMD forces this request's vector kernels — the batched
	// Maronna kernel and the online engine's Pearson cross-moment
	// kernel — onto their pure-Go paths even when CPUID dispatch would
	// use the vector backend. The tiers are bit-identical, so the flag
	// changes speed only; the tests and the bench harness use it to A/B
	// the tiers in one process. It is deliberately not part of any
	// sweep or snapshot fingerprint.
	DisableSIMD bool
	// tile, when positive, replaces DefaultTileSize. Only this
	// package's tests set it: output is bit-identical for every tile
	// size, and small test universes need small tiles to exercise
	// ragged tiles and several tiles per worker.
	tile int
}

func (c *EngineConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *EngineConfig) tileSize() int {
	if c.tile > 0 {
		return c.tile
	}
	return DefaultTileSize
}

// RobustStats aggregates how the warm-started Maronna chain behaved
// over one engine run: how many windows were seeded from the previous
// window's converged fit, how many needed the O(m) median/MAD cold
// start, and the distribution of fixed-point iteration counts. Warm
// starting skips the cold start's selection work, not most of the
// iterations: on the 8-stock kernel day (M = 100) 19 012 of 19 040
// windows are warm, the mean is 10.66 iterations and 86 % of windows
// take 9–12; on a 61-stock day (seed 20080301, M = 100) 1 242 570 of
// 1 244 400 windows are warm at a mean of 10.63 (EXPERIMENTS E13,
// E38).
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

	// SIMD wall-clock telemetry, populated only while SetSIMDProfiling
	// is on (the pack-overhead check measuring the pack cost).
	// SIMDPackNs is time spent packing each tile's rows into the
	// lane-major day tiles; SIMDRunNs is time spent in the vector batch
	// runs.
	// Excluded from bit-identity comparisons: wall-clock is not part of
	// the reference-equality contract.
	SIMDPackNs int64
	SIMDRunNs  int64
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
// It is NewDay followed by one Day.Series call: per-stock sliding
// statistics are hoisted out of the per-pair loop, the pair triangle
// is tiled into cache-sized blocks, and tiles are scheduled by work
// stealing. Callers that request several pair blocks or windows of one
// day should keep the Day and call Series per request, so the day is
// validated once and each stock's moments are computed once per M.
// Results are bit-deterministic and identical to
// ComputeSeriesMultiReference for every worker count and tile size.
func ComputeSeriesMulti(cfg EngineConfig, types []Type, returns [][]float64) ([]*Series, error) {
	d, err := NewDay(returns)
	if err != nil {
		return nil, err
	}
	return d.Series(cfg, types)
}

// NewDay validates one day of log-returns for the engine: at least two
// stocks, rows of equal length, every value finite. The Day keeps a
// reference to returns, which must not change while it is in use.
func NewDay(returns [][]float64) (*Day, error) {
	n := len(returns)
	if n < 2 {
		return nil, errors.New("corr: need at least 2 stocks")
	}
	T := len(returns[0])
	for i, row := range returns {
		if len(row) != T {
			return nil, fmt.Errorf("corr: stock %d has %d returns, want %d", i, len(row), T)
		}
	}
	for i, row := range returns {
		for u, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("corr: stock %d has non-finite return at %d", i, u)
			}
		}
	}
	return &Day{returns: returns, byM: map[int]*dayMoments{}}, nil
}

// request validates an engine request against the day and allocates
// the output series, shared by the matrix engine and the per-pair
// reference.
func (d *Day) request(cfg EngineConfig, types []Type) (pairs []int, outs []*Series, err error) {
	if len(types) == 0 {
		return nil, nil, errors.New("corr: no correlation types requested")
	}
	n, T := len(d.returns), len(d.returns[0])
	if cfg.M < 2 {
		return nil, nil, fmt.Errorf("corr: window M=%d too small", cfg.M)
	}
	if T < cfg.M {
		return nil, nil, fmt.Errorf("corr: %d returns < window M=%d", T, cfg.M)
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
// the sharing+tiling speedup TestRatioEnginePearson and
// TestRatioEngineFused check. New code should call ComputeSeriesMulti.
func ComputeSeriesMultiReference(cfg EngineConfig, types []Type, returns [][]float64) ([]*Series, error) {
	d, err := NewDay(returns)
	if err != nil {
		return nil, err
	}
	pairs, outs, err := d.request(cfg, types)
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
			workerStats[w].IterHist = make([]int, DefaultMaronnaConfig().MaxIter+1)
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
		est = NewMaronnaEstimator(DefaultMaronnaConfig())
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
type OnlineEngine struct {
	cfg     EngineConfig
	n       int
	rows    []float64 // time-major ring, M rows of stride (crossmoment.go)
	stride  int
	head    int
	count   int
	simd    bool // cross moments on the vector kernel
	workers int
	pairs   []taq.Pair // cached pair table

	// Pearson: the cross-moment table of the current window and the
	// per-stock normalisers read from it.
	tab  []float64
	invs []float64

	// Robust types: contiguous window copies (one per stock), cache
	// tiles over the pairs, per-worker batched kernels,
	// per-pair warm-start state, and per-stock cold-start initialisers
	// (computed only on pushes where some pair actually needs one).
	scratch  [][]float64
	tiles    [][]int
	tileX    [][][]float64 // per tile, its pairs' scratch rows (lane order)
	tileY    [][][]float64
	pool     []*pairBatch
	fits     []Fit
	est      *MaronnaEstimator
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
	if cfg.Pairs != nil {
		return nil, errors.New("corr: the online engine computes every pair; EngineConfig.Pairs is for the batch engine")
	}
	e := &OnlineEngine{cfg: cfg, n: n, stride: (n + 4) &^ 3, workers: cfg.workers()}
	e.simd = simdSupported && !cfg.DisableSIMD
	e.rows = make([]float64, cfg.M*e.stride)
	for s := 0; s < cfg.M; s++ {
		e.rows[s*e.stride+n] = 1
	}
	e.pairs = taq.AllPairs(n)
	switch cfg.Type {
	case Pearson:
		e.tab = make([]float64, e.stride*e.stride)
		e.invs = make([]float64, n)
	case Maronna, Combined:
		e.scratch = make([][]float64, n)
		for i := range e.scratch {
			e.scratch[i] = make([]float64, cfg.M)
		}
		// Over the whole triangle a tile's positions are canonical pair
		// ids, so matrix() indexes e.pairs, e.fits and Matrix slots with
		// them directly.
		e.tiles = buildTiles(e.pairs, cfg.tileSize())
		e.tileX = make([][][]float64, len(e.tiles))
		e.tileY = make([][][]float64, len(e.tiles))
		for ti, tile := range e.tiles {
			e.tileX[ti] = make([][]float64, len(tile))
			e.tileY[ti] = make([][]float64, len(tile))
			for li, k := range tile {
				e.tileX[ti][li] = e.scratch[e.pairs[k].I]
				e.tileY[ti][li] = e.scratch[e.pairs[k].J]
			}
		}
		e.pool = make([]*pairBatch, e.workers)
		// Successive pushes slide each pair's window by one point, so
		// the previous matrix's converged fits seed the next one.
		e.fits = make([]Fit, len(e.pairs))
		e.est = NewMaronnaEstimator(DefaultMaronnaConfig())
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
// Once it is, every slot of dst is written. A rejected vector leaves
// the engine exactly as it was.
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
	}
	copy(e.rows[e.head*e.stride:], rets)
	e.head = (e.head + 1) % e.cfg.M
	if e.count < e.cfg.M {
		e.count++
	}
	if !e.Ready() {
		return false, nil
	}
	e.matrix(dst)
	return true, nil
}

// segments returns the ring's rows in chronological order as two
// slices of whole rows: the slots from the head on, then those before
// it (empty when the head is 0).
func (e *OnlineEngine) segments() (seg0, seg1 []float64) {
	h := e.head * e.stride
	return e.rows[h:], e.rows[:h]
}

// matrix computes every pairwise coefficient of the current window.
// Pearson fills the whole cross-moment table, one row pair per task,
// and reads each pair's three sums from it. The robust
// types unroll the ring into per-stock scratch windows, refresh the
// cold initialisers when some pair needs one, and run cache tiles of
// pairs through the batched kernel. Tasks are scheduled across
// workers by work stealing; every task owns its table rows or its
// pairs' matrix slots and warm fits, and worker batch kernels are
// exchanged only through the steal pool's happens-before, so any
// schedule yields the same matrix. Every slot of m is written.
func (e *OnlineEngine) matrix(m *Matrix) {
	pairs := e.pairs
	switch e.cfg.Type {
	case Pearson:
		n, st := e.n, e.stride
		seg0, seg1 := e.segments()
		sched.Steal(e.workers, (n+1)/2, func(_, p int) {
			crossMoments(e.simd, e.tab, seg0, seg1, st, 2*p)
		})
		// The normaliser is the batch engine's pearsonInvStd of the
		// same sums, so coefficients are bit-identical to the
		// per-pair form.
		fn := float64(e.cfg.M)
		for i := range e.invs {
			e.invs[i] = pearsonInvStd(e.tab[i*st+i], e.tab[i*st+n], fn)
		}
		for k, p := range pairs {
			rx, ry := e.invs[p.I], e.invs[p.J]
			if rx == 0 || ry == 0 {
				m.SetPair(k, 0)
				continue
			}
			sxy, sx, sy := e.tab[p.I*st+p.J], e.tab[p.I*st+n], e.tab[p.J*st+n]
			m.SetPair(k, clampCorr((sxy-sx*sy/fn)*rx*ry))
		}
	case Maronna, Combined:
		// Unroll the ring into contiguous scratch, oldest first.
		seg0, seg1 := e.segments()
		t := 0
		for _, seg := range [2][]float64{seg0, seg1} {
			for r := 0; r < len(seg); r += e.stride {
				for i, x := range seg[r : r+e.n] {
					e.scratch[i][t] = x
				}
				t++
			}
		}
		// Shared cold initialisers are only worth refreshing on pushes
		// where some chain actually restarts (the first ready window,
		// and after degenerate fits); mid-stream warm fallbacks are
		// rare and recompute inline, which yields identical values.
		e.haveInit = false
		for k := range e.fits {
			if !e.fits[k].Valid {
				for i, s := range e.scratch {
					e.inits[i] = ColdInitOf(e.initBuf, s)
				}
				e.haveInit = true
				break
			}
		}
		sched.Steal(len(e.pool), len(e.tiles), func(w, ti int) {
			b := e.pool[w]
			if b == nil {
				b = newPairBatch(e.est.Config(), !e.cfg.DisableSIMD)
				e.pool[w] = b
			}
			tile := e.tiles[ti]
			combined := e.cfg.Type == Combined
			b.load(e.cfg.M, e.tileX[ti], e.tileY[ti], nil)
			b.window(0)
			for li, k := range tile {
				p := pairs[k]
				var ix, iy *ColdInit
				if e.haveInit {
					ix, iy = &e.inits[p.I], &e.inits[p.J]
				}
				b.add(li, &e.fits[k], ix, iy, nil)
			}
			b.run(nil)
			if combined {
				b.combine()
			}
			for li, k := range tile {
				f := b.fits[li]
				e.fits[k] = f
				c := f.Rho
				if combined {
					c = b.comb[li]
				}
				m.SetPair(k, c)
			}
		})
	}
}
