package corr

import (
	"math"
	"time"
)

// The batched Maronna kernel. The per-pair kernel (MaronnaEstimator's
// iterate/FitScratchShared) advances one pair's fixed point at a time:
// every window is a self-contained call chain whose state lives in
// locals and whose control flow (warm attempt → strict failure → cold
// restart) is expressed as early returns. That shape is convenient but
// hostile to a large pair triangle: the call overhead, the per-call
// weight reset and the one-lane-at-a-time traversal leave the CPU no
// way to overlap independent pairs.
//
// pairBatch lays the same iteration out as struct-of-arrays lanes: one
// lane per pair, the per-lane scalars (location, scatter, Anderson
// history, iteration budget, warm/cold mode) in parallel float64
// slices, and the per-observation weight rows carved out of one flat
// backing array. A sweep applies exactly one fixed-point iteration to
// every active lane; lanes that finish (converged, collapsed, or out
// of budget) drop out via swap-to-end compaction so late-converging
// pairs do not serialize the batch.
//
// Bit-identity contract: a lane executes the reference per-pair
// arithmetic — the same expressions, in the same order, on the same
// values — as MaronnaEstimator.FitScratchShared. Interleaving lanes is
// bit-neutral because no lane reads another lane's state; the only
// behavioural difference is scheduling. Two deliberate non-arithmetic
// deviations, both value-preserving:
//
//   - the weight row is not eagerly reset to all-ones per window; it
//     is filled with ones at finalization only when the accepted run
//     performed no scatter pass (degenerate exits), because any scatter
//     pass overwrites every entry anyway;
//   - a strict (warm) failure restarts the lane cold in place instead
//     of unwinding a call stack.
//
// TestMatrixEngineMatchesReference and the degenerate-batch tests are
// the gate: per-pair results must be bit-identical to running each
// pair alone through the reference.
type pairBatch struct {
	k, k2   float64
	tol     float64
	maxIter int

	m       int // window length all lanes share
	laneCap int
	active  int

	// Per-lane window views and weight rows (swapped with their lane).
	xw, yw [][]float64
	wrow   [][]float64
	wback  []float64 // flat backing for the weight rows

	// Per-lane iteration state, struct-of-arrays.
	t1, t2        []float64
	v11, v22, v12 []float64
	pg, pf        [][5]float64 // Anderson(1) history
	havePrev      []bool
	strict        []bool // current run is the warm strict attempt
	attempted     []bool // a warm attempt was made for this window
	wFresh        []bool // weight row written by the accepted run
	iters         []int
	tag           []int // caller's lane identity (stable across compaction)

	// Shared cold-start initialisers captured at add time (used again
	// if a strict run fails and the lane restarts cold).
	ix, iy   []ColdInit
	haveInit []bool

	// Results indexed by tag, valid after run() until the next begin().
	fits []Fit
	wOut [][]float64 // final weight rows, aliases into wback

	sbuf []float64 // median/MAD selection scratch for inline cold inits

	// SIMD lane-major state. When simd is set (AVX2 available and not
	// disabled for this batch) run() executes sweeps in phases: the
	// scalar bookkeeping of step() per lane, then one vector kernel
	// call per full quad of four lanes over the packed tiles. Element
	// i of the lane at position l lives at xt[(l/4)*4*m + i*4 + l%4]
	// (quad-blocked obs-major), so a quad's observation i is one
	// contiguous 32-byte vector load. Lanes keep their packed columns
	// as compaction swaps them (swapLanes swaps columns while packed),
	// and compaction itself is deferred to sweep end (dead marks) so a
	// sweep steps exactly its start-of-sweep active set — the same
	// schedule as the scalar path, which the bit-identity argument
	// relies on.
	simd   bool // vector backend enabled for this batch
	packed bool // tiles currently hold the active lanes' windows
	deferC bool // inside a phased sweep: finalize defers compaction

	xt, yt, wt []float64 // quad-blocked obs-major tiles (x, y, weights)
	wVec       []bool    // lane's freshest weights live in wt, not wrow
	dead       []bool    // lane finalized mid-sweep, compacted at sweep end
	skip       []bool    // lane resolved/restarted this sweep: no vector consume

	// Per-sweep per-lane scratch carrying values between phases
	// (inverse scatter, location sums, new center, scatter sums).
	li11, li22, li12 []float64
	lsw, lsx, lsy    []float64
	lt1n, lt2n       []float64
	ln11, ln22, ln12 []float64
}

// simdMinLanes is the smallest active set runSIMD will pack: below one
// full quad every lane would take the scalar fallback anyway.
const simdMinLanes = 4

// newPairBatch builds a batch kernel for the given (validated)
// estimator configuration. The batch grows its lane capacity on
// demand and is reused across tiles and windows by one worker. simd
// requests the vector backend; it takes effect only when the host
// supports it (CPUID on amd64), so callers just pass !cfg.DisableSIMD.
func newPairBatch(cfg MaronnaConfig, simd bool) *pairBatch {
	e := NewMaronnaEstimator(cfg) // reuse the validation defaults
	c := e.Config()
	return &pairBatch{
		k: c.K, k2: c.K * c.K, tol: c.Tol, maxIter: c.MaxIter,
		simd: simd && simdSupported,
	}
}

// begin prepares the batch for windows of length m with up to lanes
// concurrent lanes. Calling it with previously-seen sizes performs no
// allocation; results of the previous run remain readable until the
// first add.
func (b *pairBatch) begin(m, lanes int) {
	if m != b.m || lanes > b.laneCap {
		b.grow(m, lanes)
	}
	b.active = 0
}

func (b *pairBatch) grow(m, lanes int) {
	if lanes < b.laneCap {
		lanes = b.laneCap
	}
	b.m = m
	b.laneCap = lanes
	b.xw = make([][]float64, lanes)
	b.yw = make([][]float64, lanes)
	b.wrow = make([][]float64, lanes)
	b.wback = make([]float64, lanes*m)
	b.t1 = make([]float64, lanes)
	b.t2 = make([]float64, lanes)
	b.v11 = make([]float64, lanes)
	b.v22 = make([]float64, lanes)
	b.v12 = make([]float64, lanes)
	b.pg = make([][5]float64, lanes)
	b.pf = make([][5]float64, lanes)
	b.havePrev = make([]bool, lanes)
	b.strict = make([]bool, lanes)
	b.attempted = make([]bool, lanes)
	b.wFresh = make([]bool, lanes)
	b.iters = make([]int, lanes)
	b.tag = make([]int, lanes)
	b.ix = make([]ColdInit, lanes)
	b.iy = make([]ColdInit, lanes)
	b.haveInit = make([]bool, lanes)
	b.fits = make([]Fit, lanes)
	b.wOut = make([][]float64, lanes)
	b.sbuf = make([]float64, m)
	b.wVec = make([]bool, lanes)
	b.dead = make([]bool, lanes)
	b.skip = make([]bool, lanes)
	if b.simd {
		tile := (lanes + 3) / 4 * 4 * m
		b.xt = make([]float64, tile)
		b.yt = make([]float64, tile)
		b.wt = make([]float64, tile)
		b.li11 = make([]float64, lanes)
		b.li22 = make([]float64, lanes)
		b.li12 = make([]float64, lanes)
		b.lsw = make([]float64, lanes)
		b.lsx = make([]float64, lanes)
		b.lsy = make([]float64, lanes)
		b.lt1n = make([]float64, lanes)
		b.lt2n = make([]float64, lanes)
		b.ln11 = make([]float64, lanes)
		b.ln22 = make([]float64, lanes)
		b.ln12 = make([]float64, lanes)
	}
}

// add enqueues one window as a lane. x and y must have length m (the
// begin length); tag identifies the lane to the caller (0 ≤ tag <
// lanes) and indexes the fits/wOut result slots. warm, ix, iy carry
// the same meaning as in FitScratchShared. Lanes that finish without
// iterating (degenerate cold inits) resolve immediately.
func (b *pairBatch) add(x, y []float64, warm *Fit, ix, iy *ColdInit, tag int, st *RobustStats) {
	l := b.active
	b.xw[l], b.yw[l] = x, y
	b.tag[l] = tag
	// The weight row is carved out by tag, not by lane slot: a lane
	// that resolves during add frees its slot for the next add, and a
	// slot-indexed row would let that later lane overwrite the weights
	// already published under the finished lane's tag.
	b.wrow[l] = b.wback[tag*b.m : (tag+1)*b.m : (tag+1)*b.m]
	b.wFresh[l] = false
	b.wVec[l] = false
	b.dead[l] = false
	b.skip[l] = false
	b.iters[l] = 0
	b.havePrev[l] = false
	b.attempted[l] = warm != nil && warm.Valid
	if ix != nil && iy != nil {
		b.ix[l], b.iy[l] = *ix, *iy
		b.haveInit[l] = true
	} else {
		b.haveInit[l] = false
	}
	b.active = l + 1
	if b.attempted[l] {
		// Strict warm attempt from the previous window's fixed point.
		b.strict[l] = true
		b.t1[l], b.t2[l] = warm.T1, warm.T2
		b.v11[l], b.v22[l], b.v12[l] = warm.V11, warm.V22, warm.V12
		return
	}
	b.startCold(l, st)
}

// startCold (re)initialises lane l from the robust univariate cold
// start, finalizing immediately when a series is genuinely constant
// (no correlation defined — the reference's empty Fit). It reports
// whether the lane is still active.
func (b *pairBatch) startCold(l int, st *RobustStats) bool {
	b.strict[l] = false
	b.wFresh[l] = false
	b.iters[l] = 0
	b.havePrev[l] = false
	var i1, i2 ColdInit
	if b.haveInit[l] {
		i1, i2 = b.ix[l], b.iy[l]
	} else {
		i1 = ColdInitOf(b.sbuf, b.xw[l])
		i2 = ColdInitOf(b.sbuf, b.yw[l])
	}
	if i1.Scale == 0 || i2.Scale == 0 {
		return b.finalize(l, Fit{}, st)
	}
	b.t1[l], b.t2[l] = i1.Med, i2.Med
	b.v11[l], b.v22[l], b.v12[l] = i1.Scale*i1.Scale, i2.Scale*i2.Scale, 0
	return true
}

// run sweeps the active set until every lane has finished. One sweep
// applies one fixed-point iteration to each active lane; st (when
// non-nil) records each lane's warm-start statistics. The vector and
// scalar paths produce bit-identical fits, weights and statistics.
func (b *pairBatch) run(st *RobustStats) {
	if b.simd && b.active >= simdMinLanes {
		b.runSIMD(st)
		return
	}
	for b.active > 0 {
		l := 0
		for l < b.active {
			if b.step(l, st) {
				l++
			}
		}
	}
}

// runSIMD is run with each sweep split into phases so the two weight
// passes execute as lane-major vector kernels: per sweep, (1) the
// scalar inverse-scatter bookkeeping of step() for every lane, (2) the
// location pass — one maronnaLocation4 call per full quad, scalar
// maronnaLocation for the ragged tail — (3) the scalar sw==0 check and
// center update, (4) the scatter pass likewise, (5) the scalar
// convergence/Anderson/budget tail of step(). A lane resolved or
// cold-restarted by a scalar phase sets skip and sits out the rest of
// the sweep (exactly the scalar schedule, where step() returns after
// the same decision); vector kernels still process skipped lanes'
// slots — their packed data is valid, no lane reads another's slot,
// and phases 3/5 discard the results — so quads never need masking.
// Finalized lanes compact at sweep end (finalize defers while deferC),
// preserving "one sweep steps the start-of-sweep active set".
func (b *pairBatch) runSIMD(st *RobustStats) {
	prof := st != nil && simdProfiling.Load()
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	b.pack()
	if prof {
		now := time.Now()
		st.SIMDPackNs += now.Sub(t0).Nanoseconds()
		t0 = now
	}
	b.deferC = true
	m := b.m
	for b.active > 0 {
		n := b.active
		for l := 0; l < n; l++ {
			b.skip[l] = false
			b.phaseInverse(l, st)
		}
		full := n / 4
		for q := 0; q < full; q++ {
			o := q * 4
			maronnaLocation4(&b.xt[o*m], &b.yt[o*m], m,
				&b.t1[o], &b.t2[o], &b.li11[o], &b.li22[o], &b.li12[o],
				b.k, b.k2, &b.lsw[o], &b.lsx[o], &b.lsy[o])
		}
		for l := full * 4; l < n; l++ {
			if b.skip[l] {
				continue
			}
			b.lsw[l], b.lsx[l], b.lsy[l] = maronnaLocation(b.xw[l], b.yw[l],
				b.t1[l], b.t2[l], b.li11[l], b.li22[l], b.li12[l], b.k, b.k2)
		}
		for l := 0; l < n; l++ {
			if b.skip[l] {
				continue
			}
			b.phaseCenter(l, st)
		}
		for q := 0; q < full; q++ {
			o := q * 4
			maronnaScatter4(&b.xt[o*m], &b.yt[o*m], &b.wt[o*m], m,
				&b.lt1n[o], &b.lt2n[o], &b.li11[o], &b.li22[o], &b.li12[o],
				b.k2, &b.ln11[o], &b.ln22[o], &b.ln12[o])
		}
		for l := full * 4; l < n; l++ {
			if b.skip[l] {
				continue
			}
			b.ln11[l], b.ln22[l], b.ln12[l] = maronnaScatter(b.xw[l], b.yw[l],
				b.wrow[l], b.lt1n[l], b.lt2n[l], b.li11[l], b.li22[l], b.li12[l], b.k2)
			b.wVec[l] = false
		}
		for l := 0; l < n; l++ {
			if b.skip[l] {
				continue
			}
			b.wFresh[l] = true
			if l < full*4 {
				b.wVec[l] = true
			}
			b.phaseAdvance(l, st)
		}
		b.compactDead()
	}
	b.deferC = false
	b.packed = false
	if prof {
		st.SIMDRunNs += time.Since(t0).Nanoseconds()
	}
}

// pack transposes the active lanes' windows into the quad-blocked
// tiles. It runs once per batch run — the tiles then serve every
// sweep, and compaction keeps columns attached to their lanes by
// swapping them.
func (b *pairBatch) pack() {
	m := b.m
	for l := 0; l < b.active; l++ {
		base := (l &^ 3) * m
		s := l & 3
		x, y := b.xw[l][:m], b.yw[l][:m]
		for i := 0; i < m; i++ {
			b.xt[base+i*4+s] = x[i]
			b.yt[base+i*4+s] = y[i]
		}
		b.wVec[l] = false
		b.dead[l] = false
		b.skip[l] = false
	}
	b.packed = true
}

// untranspose copies lane l's weight column out of the wt tile into
// its flat weight row (the form results are published in).
func (b *pairBatch) untranspose(l int) {
	base := (l&^3)*b.m + l&3
	w := b.wrow[l]
	for i := range w {
		w[i] = b.wt[base+i*4]
	}
}

// phaseInverse is step()'s opening: the determinant guard and the
// inverse-scatter entries, stashed per lane for the vector kernels.
func (b *pairBatch) phaseInverse(l int, st *RobustStats) {
	v11, v22, v12 := b.v11[l], b.v22[l], b.v12[l]
	det := v11*v22 - v12*v12
	if det <= 0 || v11 <= 0 || v22 <= 0 {
		if b.strict[l] {
			b.startCold(l, st)
		} else {
			b.finish(l, false, st)
		}
		b.skip[l] = true
		return
	}
	b.iters[l]++
	b.li11[l] = v22 / det
	b.li22[l] = v11 / det
	b.li12[l] = -v12 / det
}

// phaseCenter is step()'s middle: the sw==0 degeneracy guard and the
// new location from the batched location sums.
func (b *pairBatch) phaseCenter(l int, st *RobustStats) {
	sw := b.lsw[l]
	if sw == 0 {
		if b.strict[l] {
			b.startCold(l, st)
		} else {
			b.finish(l, false, st)
		}
		b.skip[l] = true
		return
	}
	b.lt1n[l], b.lt2n[l] = b.lsx[l]/sw, b.lsy[l]/sw
}

// phaseAdvance is step()'s tail from the scatter normalisation on:
// convergence test, Anderson(1) extrapolation, and iteration budget —
// the same expressions in the same order.
func (b *pairBatch) phaseAdvance(l int, st *RobustStats) {
	v11, v22, v12 := b.v11[l], b.v22[l], b.v12[l]
	t1, t2 := b.t1[l], b.t2[l]
	t1n, t2n := b.lt1n[l], b.lt2n[l]
	n11, n22, n12 := b.ln11[l], b.ln22[l], b.ln12[l]
	fn := float64(len(b.xw[l]))
	n11 /= fn
	n22 /= fn
	n12 /= fn

	den := math.Abs(v11) + math.Abs(v22) + math.Abs(v12)
	num := math.Abs(n11-v11) + math.Abs(n22-v22) + math.Abs(n12-v12)
	g := [5]float64{t1n, t2n, n11, n22, n12}
	f := [5]float64{t1n - t1, t2n - t2, n11 - v11, n22 - v22, n12 - v12}
	t1, t2 = t1n, t2n
	v11, v22, v12 = n11, n22, n12
	if den > 0 && num/den < b.tol {
		b.t1[l], b.t2[l] = t1, t2
		b.v11[l], b.v22[l], b.v12[l] = v11, v22, v12
		if b.strict[l] && (v11 <= 0 || v22 <= 0) {
			b.startCold(l, st)
			b.skip[l] = true
			return
		}
		b.finish(l, true, st)
		b.skip[l] = true
		return
	}

	if b.havePrev[l] {
		pf := &b.pf[l]
		var fd, dd float64
		for c := 0; c < 5; c++ {
			d := f[c] - pf[c]
			fd += f[c] * d
			dd += d * d
		}
		if dd > 0 {
			if theta := fd / dd; math.Abs(theta) < 16 {
				pg := &b.pg[l]
				a1 := t1n - theta*(t1n-pg[0])
				a2 := t2n - theta*(t2n-pg[1])
				a11 := n11 - theta*(n11-pg[2])
				a22 := n22 - theta*(n22-pg[3])
				a12 := n12 - theta*(n12-pg[4])
				if a11 > 0 && a22 > 0 && a11*a22-a12*a12 > 0 {
					t1, t2 = a1, a2
					v11, v22, v12 = a11, a22, a12
				}
			}
		}
	}
	b.pg[l] = g
	b.pf[l] = f
	b.havePrev[l] = true
	b.t1[l], b.t2[l] = t1, t2
	b.v11[l], b.v22[l], b.v12[l] = v11, v22, v12

	if b.iters[l] >= b.maxIter {
		if b.strict[l] {
			b.startCold(l, st)
		} else {
			b.finish(l, false, st)
		}
		b.skip[l] = true
	}
}

// compactDead swaps lanes finalized during the sweep out of the active
// set. Running it between sweeps (rather than compacting inline like
// the scalar path) keeps quad membership stable while vector kernels
// are in flight; the resulting active sets per sweep are identical
// either way.
func (b *pairBatch) compactDead() {
	l := 0
	for l < b.active {
		if !b.dead[l] {
			l++
			continue
		}
		last := b.active - 1
		if l != last {
			b.swapLanes(l, last)
		}
		b.dead[last] = false
		b.active = last
	}
}

// step advances lane l by one fixed-point iteration, transcribing one
// trip of the reference iterate loop. It reports whether the lane is
// still active at position l (finished lanes compact another lane into
// l, so the caller must not advance).
func (b *pairBatch) step(l int, st *RobustStats) bool {
	v11, v22, v12 := b.v11[l], b.v22[l], b.v12[l]
	det := v11*v22 - v12*v12
	if det <= 0 || v11 <= 0 || v22 <= 0 {
		// Scatter collapsed: strict runs rerun cold, cold runs accept
		// the current state (the reference's break).
		if b.strict[l] {
			return b.startCold(l, st)
		}
		return b.finish(l, false, st)
	}
	b.iters[l]++
	i11 := v22 / det
	i22 := v11 / det
	i12 := -v12 / det

	x, y := b.xw[l], b.yw[l]
	t1, t2 := b.t1[l], b.t2[l]
	sw, sx, sy := maronnaLocation(x, y, t1, t2, i11, i22, i12, b.k, b.k2)
	if sw == 0 {
		if b.strict[l] {
			return b.startCold(l, st)
		}
		return b.finish(l, false, st)
	}
	t1n, t2n := sx/sw, sy/sw

	n11, n22, n12 := maronnaScatter(x, y, b.wrow[l], t1n, t2n, i11, i22, i12, b.k2)
	b.wFresh[l] = true
	fn := float64(len(x))
	n11 /= fn
	n22 /= fn
	n12 /= fn

	den := math.Abs(v11) + math.Abs(v22) + math.Abs(v12)
	num := math.Abs(n11-v11) + math.Abs(n22-v22) + math.Abs(n12-v12)
	g := [5]float64{t1n, t2n, n11, n22, n12}
	f := [5]float64{t1n - t1, t2n - t2, n11 - v11, n22 - v22, n12 - v12}
	t1, t2 = t1n, t2n
	v11, v22, v12 = n11, n22, n12
	if den > 0 && num/den < b.tol {
		b.t1[l], b.t2[l] = t1, t2
		b.v11[l], b.v22[l], b.v12[l] = v11, v22, v12
		if b.strict[l] && (v11 <= 0 || v22 <= 0) {
			// The reference reports a converged-but-degenerate warm fit
			// as a warm failure; rerun cold like FitScratchShared does.
			return b.startCold(l, st)
		}
		return b.finish(l, true, st)
	}

	// Anderson(1) extrapolation from the last two plain steps.
	if b.havePrev[l] {
		pf := &b.pf[l]
		var fd, dd float64
		for c := 0; c < 5; c++ {
			d := f[c] - pf[c]
			fd += f[c] * d
			dd += d * d
		}
		if dd > 0 {
			if theta := fd / dd; math.Abs(theta) < 16 {
				pg := &b.pg[l]
				a1 := t1n - theta*(t1n-pg[0])
				a2 := t2n - theta*(t2n-pg[1])
				a11 := n11 - theta*(n11-pg[2])
				a22 := n22 - theta*(n22-pg[3])
				a12 := n12 - theta*(n12-pg[4])
				// Safeguard: extrapolate only onto a usable scatter.
				if a11 > 0 && a22 > 0 && a11*a22-a12*a12 > 0 {
					t1, t2 = a1, a2
					v11, v22, v12 = a11, a22, a12
				}
			}
		}
	}
	b.pg[l] = g
	b.pf[l] = f
	b.havePrev[l] = true
	b.t1[l], b.t2[l] = t1, t2
	b.v11[l], b.v22[l], b.v12[l] = v11, v22, v12

	if b.iters[l] >= b.maxIter {
		// Iteration budget exhausted without convergence.
		if b.strict[l] {
			return b.startCold(l, st)
		}
		return b.finish(l, false, st)
	}
	return true
}

// finish builds lane l's Fit exactly as the reference does after its
// loop exits and finalizes the lane.
func (b *pairBatch) finish(l int, converged bool, st *RobustStats) bool {
	f := Fit{
		T1: b.t1[l], T2: b.t2[l],
		V11: b.v11[l], V22: b.v22[l], V12: b.v12[l],
		Iters: b.iters[l], Converged: converged,
	}
	if f.V11 > 0 && f.V22 > 0 {
		f.Rho = clampCorr(f.V12 / math.Sqrt(f.V11*f.V22))
		// Only cleanly converged scatters seed the next window: a
		// collapsed or budget-exhausted state would poison the chain.
		f.Valid = converged && f.V11*f.V22-f.V12*f.V12 > 0
		if b.strict[l] {
			f.Seeded = true
		}
	}
	return b.finalize(l, f, st)
}

// finalize publishes lane l's result under its tag, restores the
// all-ones weight row when no scatter pass of the accepted run wrote
// it, records the window statistics, and compacts the lane out of the
// active set (immediately on the scalar path; deferred to sweep end
// inside a phased SIMD sweep, where the lane is only marked dead). It
// always returns false (lane no longer steps at position l).
func (b *pairBatch) finalize(l int, f Fit, st *RobustStats) bool {
	if b.wVec[l] {
		// The freshest weights live in the packed tile; publish them in
		// row form now, before a later vector scatter reuses the column.
		if b.wFresh[l] {
			b.untranspose(l)
		}
		b.wVec[l] = false
	}
	if !b.wFresh[l] {
		w := b.wrow[l]
		for i := range w {
			w[i] = 1
		}
	}
	tag := b.tag[l]
	b.fits[tag] = f
	b.wOut[tag] = b.wrow[l]
	if st != nil {
		st.record(f, b.attempted[l])
	}
	if b.deferC {
		b.dead[l] = true
		b.skip[l] = true
		return false
	}
	last := b.active - 1
	if l != last {
		b.swapLanes(l, last)
	}
	b.active = last
	return false
}

// swapLanes exchanges every per-lane slot of lanes a and b.
func (b *pairBatch) swapLanes(i, j int) {
	b.xw[i], b.xw[j] = b.xw[j], b.xw[i]
	b.yw[i], b.yw[j] = b.yw[j], b.yw[i]
	b.wrow[i], b.wrow[j] = b.wrow[j], b.wrow[i]
	b.t1[i], b.t1[j] = b.t1[j], b.t1[i]
	b.t2[i], b.t2[j] = b.t2[j], b.t2[i]
	b.v11[i], b.v11[j] = b.v11[j], b.v11[i]
	b.v22[i], b.v22[j] = b.v22[j], b.v22[i]
	b.v12[i], b.v12[j] = b.v12[j], b.v12[i]
	b.pg[i], b.pg[j] = b.pg[j], b.pg[i]
	b.pf[i], b.pf[j] = b.pf[j], b.pf[i]
	b.havePrev[i], b.havePrev[j] = b.havePrev[j], b.havePrev[i]
	b.strict[i], b.strict[j] = b.strict[j], b.strict[i]
	b.attempted[i], b.attempted[j] = b.attempted[j], b.attempted[i]
	b.wFresh[i], b.wFresh[j] = b.wFresh[j], b.wFresh[i]
	b.iters[i], b.iters[j] = b.iters[j], b.iters[i]
	b.tag[i], b.tag[j] = b.tag[j], b.tag[i]
	b.ix[i], b.ix[j] = b.ix[j], b.ix[i]
	b.iy[i], b.iy[j] = b.iy[j], b.iy[i]
	b.haveInit[i], b.haveInit[j] = b.haveInit[j], b.haveInit[i]
	b.wVec[i], b.wVec[j] = b.wVec[j], b.wVec[i]
	b.dead[i], b.dead[j] = b.dead[j], b.dead[i]
	b.skip[i], b.skip[j] = b.skip[j], b.skip[i]
	if b.packed {
		b.swapCols(i, j)
	}
}

// swapCols exchanges the packed tile columns of lane positions i and j
// so compaction keeps every lane's window (and pending weight column)
// attached to its position in the quad layout.
func (b *pairBatch) swapCols(i, j int) {
	m := b.m
	bi := (i&^3)*m + i&3
	bj := (j&^3)*m + j&3
	for t := 0; t < m; t++ {
		oi, oj := bi+t*4, bj+t*4
		b.xt[oi], b.xt[oj] = b.xt[oj], b.xt[oi]
		b.yt[oi], b.yt[oj] = b.yt[oj], b.yt[oi]
		b.wt[oi], b.wt[oj] = b.wt[oj], b.wt[oi]
	}
}

// maronnaLocation is the reference location pass (Huber w1 weights on
// the Mahalanobis distance) as a free function with the bounds checks
// hoisted. The arithmetic is expression-for-expression the loop inside
// MaronnaEstimator.iterate, which stays frozen as the verification
// baseline; same inputs produce bit-identical sums.
func maronnaLocation(x, y []float64, t1, t2, i11, i22, i12, k, k2 float64) (sw, sx, sy float64) {
	y = y[:len(x)]
	for i := range x {
		dx, dy := x[i]-t1, y[i]-t2
		d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
		w := 1.0
		if d2 > k2 {
			w = k / math.Sqrt(d2)
		}
		sw += w
		sx += w * x[i]
		sy += w * y[i]
	}
	return sw, sx, sy
}

// maronnaScatter is the reference scatter pass (Huber w2 weights),
// recording the per-observation weights into wout. See
// maronnaLocation for the sharing rationale.
func maronnaScatter(x, y, wout []float64, t1, t2, i11, i22, i12, k2 float64) (n11, n22, n12 float64) {
	y = y[:len(x)]
	wout = wout[:len(x)]
	for i := range x {
		dx, dy := x[i]-t1, y[i]-t2
		d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
		w := 1.0
		if d2 > k2 {
			w = k2 / d2
		}
		wout[i] = w
		n11 += w * dx * dx
		n22 += w * dy * dy
		n12 += w * dx * dy
	}
	return n11, n22, n12
}
