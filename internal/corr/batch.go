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
// pairBatch lays the same iteration out as lanes: one lane per pair,
// four lanes to a quad, and each quad's per-lane scalars (location,
// scatter, the sweep's inverse scatter and sums, the Anderson history)
// stored component-major, so one component of a quad is one 32-byte
// vector. A lane keeps its slot for the whole run — lane l is always
// the caller's pair l — and a lane that finishes (converged,
// collapsed, or out of budget) is only marked dead: nothing moves, and
// the slot idles until its next window. A ragged tail is padded to a
// whole quad with permanently dead lanes. run drives one quad at a
// time until all four of its lanes are dead; one sweep of a quad
// applies one fixed-point iteration to each live lane. Both dispatch
// tiers share this scheduler and differ only in the weight passes and
// the sweep's tail: the vector tier runs the AVX2 quad kernels
// (maronna_amd64.s), the scalar tier runs maronnaLocation,
// maronnaScatter and advanceQuad lane by lane.
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
	simd    bool // vector backend enabled for this batch

	m     int // window length all lanes share
	lanes int // lanes loaded by the last load

	// Per-lane rows as loaded (the caller's slices), the current
	// window's views of them, and the scalar tier's weight rows (carved
	// out of one flat backing array by slot).
	xrow, yrow [][]float64
	t          int // offset of the current window in the rows
	xw, yw     [][]float64
	wrow       [][]float64
	wback      []float64

	qs []quad // per-quad iteration state; lane l is qs[l/4], slot l%4

	// Per-lane run state.
	havePrev  []bool // the Anderson history holds a previous step
	strict    []bool // current run is the warm strict attempt
	attempted []bool // a warm attempt was made for this window
	wFresh    []bool // weights written by the accepted run
	dead      []bool // lane finished this window (or is padding)
	iters     []int

	// Shared cold-start initialisers captured at add time (used again
	// if a strict run fails and the lane restarts cold).
	ix, iy   []ColdInit
	haveInit []bool

	// Results indexed by lane, valid after run() until the next add.
	fits []Fit
	comb []float64 // Combined coefficients, valid after combine()

	sbuf []float64 // median/MAD selection scratch for inline cold inits

	// Vector tier. load packs every lane's whole rows once into
	// quad-blocked obs-major day tiles: element i of lane l lives at
	// xt[(l/4)*4*span + i*4 + l%4], so a quad's observation i is one
	// contiguous 32-byte load and window t starts at offset t*4 of the
	// quad's block. Padding lanes pack a zero row. wt is the window's
	// weight tile, in the same layout: the scatter kernel stores only
	// the iterating lanes' weights, so a finished lane's column keeps
	// its final weights while the rest of its quad runs on.
	span   int // row length of the loaded lanes
	xt, yt []float64
	wt     []float64
	zero   []float64     // all-zero row packed into padding slots
	wp     [4][4]float64 // weightedPearson4's sums: sw, vx, vy, cxy
}

// quad is the iteration state of four lane slots, component-major:
// each field holds one component of the quad's four lanes, so the
// AVX2 kernels load and store it as one vector. The kernels address
// the fields by byte offset (maronna_amd64.s); TestQuadLayout pins
// them.
type quad struct {
	t1, t2        [4]float64    // location
	v11, v22, v12 [4]float64    // scatter
	i11, i22, i12 [4]float64    // inverse scatter of the current sweep
	sw, t1n, t2n  [4]float64    // location weight sum and new center
	n11, n22, n12 [4]float64    // scatter sums (before the 1/m scaling)
	pg, pf        [5][4]float64 // Anderson(1) history: last map output and residual
}

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

// load binds lane l to rows xs[l], ys[l] (all of one length, at least
// m) for windows of length m, and on the vector tier packs the rows
// into the day tiles once. The batch keeps xs and ys until the next
// load. With previously-seen sizes it allocates nothing. st, when
// non-nil and SIMD profiling is on, is charged the pack time.
func (b *pairBatch) load(m int, xs, ys [][]float64, st *RobustStats) {
	lanes := len(xs)
	if m != b.m || lanes > len(b.dead) {
		b.grow(m, lanes)
	}
	b.lanes = lanes
	b.xrow, b.yrow = xs, ys
	for l := range b.dead {
		b.dead[l] = true
	}
	// Padding slots see zero location and inverse scatter: every
	// observation falls inside the Huber band, so they never send the
	// quad's kernels down their slow path.
	for l := lanes; l < (lanes+3)&^3; l++ {
		q, s := &b.qs[l>>2], l&3
		q.t1[s], q.t2[s], q.t1n[s], q.t2n[s] = 0, 0, 0, 0
		q.i11[s], q.i22[s], q.i12[s] = 0, 0, 0
	}
	if !b.simd {
		return
	}
	prof := st != nil && simdProfiling.Load()
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	span := len(xs[0])
	if n := len(b.dead) * span; n > len(b.xt) {
		b.xt = make([]float64, n)
		b.yt = make([]float64, n)
		b.zero = make([]float64, span)
	}
	b.span = span
	zero := b.zero[:span]
	for o := 0; o < lanes; o += 4 {
		var xq, yq [4][]float64
		for s := range xq {
			xq[s], yq[s] = zero, zero
			if o+s < lanes {
				xq[s], yq[s] = xs[o+s][:span], ys[o+s][:span]
			}
		}
		xt := b.xt[o*span : (o+4)*span]
		yt := b.yt[o*span : (o+4)*span]
		for i := 0; i < span; i++ {
			xt[i*4], xt[i*4+1], xt[i*4+2], xt[i*4+3] = xq[0][i], xq[1][i], xq[2][i], xq[3][i]
			yt[i*4], yt[i*4+1], yt[i*4+2], yt[i*4+3] = yq[0][i], yq[1][i], yq[2][i], yq[3][i]
		}
	}
	if prof {
		st.SIMDPackNs += time.Since(t0).Nanoseconds()
	}
}

func (b *pairBatch) grow(m, lanes int) {
	lanes = max((lanes+3)&^3, len(b.dead))
	b.m = m
	b.xw = make([][]float64, lanes)
	b.yw = make([][]float64, lanes)
	b.wrow = make([][]float64, lanes)
	b.wback = make([]float64, lanes*m)
	for l := range b.wrow {
		b.wrow[l] = b.wback[l*m : (l+1)*m : (l+1)*m]
	}
	b.qs = make([]quad, lanes/4)
	b.havePrev = make([]bool, lanes)
	b.strict = make([]bool, lanes)
	b.attempted = make([]bool, lanes)
	b.wFresh = make([]bool, lanes)
	b.dead = make([]bool, lanes)
	b.iters = make([]int, lanes)
	b.ix = make([]ColdInit, lanes)
	b.iy = make([]ColdInit, lanes)
	b.haveInit = make([]bool, lanes)
	b.fits = make([]Fit, lanes)
	b.comb = make([]float64, lanes)
	b.sbuf = make([]float64, m)
	if b.simd {
		b.xt, b.yt = nil, nil // regrown by load at the new lane count
		b.wt = make([]float64, lanes*m)
	}
}

// window positions every lane at window t of its loaded rows. Every
// lane of one run shares t, so each quad reads one tile offset.
func (b *pairBatch) window(t int) {
	b.t = t
	for l := 0; l < b.lanes; l++ {
		b.xw[l], b.yw[l] = b.xrow[l][t:t+b.m], b.yrow[l][t:t+b.m]
	}
}

// add starts lane l on the current window. warm, ix, iy carry the same
// meaning as in FitScratchShared. A lane that finishes without
// iterating (degenerate cold inits) resolves immediately.
func (b *pairBatch) add(l int, warm *Fit, ix, iy *ColdInit, st *RobustStats) {
	b.dead[l] = false
	b.wFresh[l] = false
	b.iters[l] = 0
	b.havePrev[l] = false
	b.attempted[l] = warm != nil && warm.Valid
	if ix != nil && iy != nil {
		b.ix[l], b.iy[l] = *ix, *iy
		b.haveInit[l] = true
	} else {
		b.haveInit[l] = false
	}
	if b.attempted[l] {
		// Strict warm attempt from the previous window's fixed point.
		q, s := &b.qs[l>>2], l&3
		b.strict[l] = true
		q.t1[s], q.t2[s] = warm.T1, warm.T2
		q.v11[s], q.v22[s], q.v12[s] = warm.V11, warm.V22, warm.V12
		return
	}
	b.startCold(l, st)
}

// startCold (re)initialises lane l from the robust univariate cold
// start, finalizing immediately when a series is genuinely constant
// (no correlation defined — the reference's empty Fit).
func (b *pairBatch) startCold(l int, st *RobustStats) {
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
		b.finalize(l, Fit{}, st)
		return
	}
	q, s := &b.qs[l>>2], l&3
	q.t1[s], q.t2[s] = i1.Med, i2.Med
	q.v11[s], q.v22[s], q.v12[s] = i1.Scale*i1.Scale, i2.Scale*i2.Scale, 0
}

// run iterates the added lanes until every one has finished; st (when
// non-nil) records each lane's warm-start statistics. The vector and
// scalar tiers produce bit-identical fits, weights and statistics.
func (b *pairBatch) run(st *RobustStats) {
	prof := b.simd && st != nil && simdProfiling.Load()
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	for o := 0; o < b.lanes; o += 4 {
		b.runQuad(o, st)
	}
	if prof {
		st.SIMDRunNs += time.Since(t0).Nanoseconds()
	}
}

// runQuad sweeps the quad of lanes o..o+3 until all four are dead.
// A sweep is one trip of the reference iterate loop per live lane, in
// phases: the determinant guard and inverse scatter (inverse), the
// location pass, the sw == 0 guard, the scatter pass, and the tail
// (convergence, Anderson extrapolation, budget). A lane resolved or
// cold-restarted by a phase sits out the rest of the sweep, exactly
// where the reference loop would leave it. The weight passes still
// compute every slot of the quad — dead, resting and padding lanes
// included; no lane reads another's slot and the phases discard those
// results — so the vector sums need no masking. Only the scatter
// pass's weight stores are masked to act, which keeps finished lanes'
// weights in the tile.
func (b *pairBatch) runQuad(o int, st *RobustStats) {
	q := &b.qs[o>>2]
	for !(b.dead[o] && b.dead[o+1] && b.dead[o+2] && b.dead[o+3]) {
		act, prev := 0, 0
		for s := range 4 {
			if l := o + s; !b.dead[l] && b.inverse(l, st) {
				act |= 1 << s
				if b.havePrev[l] {
					prev |= 1 << s
				}
			}
		}
		if act == 0 {
			continue
		}
		b.location(o, act)
		for s := range 4 {
			if act&(1<<s) != 0 && q.sw[s] == 0 {
				b.abandon(o+s, st)
				act &^= 1 << s
			}
		}
		b.scatter(o, act)
		var conv int
		if b.simd {
			conv = maronnaAdvance4(q, act, prev, float64(b.m), b.tol)
		} else {
			conv = advanceQuad(q, act, prev, float64(b.m), b.tol)
		}
		for s := range 4 {
			if act&(1<<s) == 0 {
				continue
			}
			l := o + s
			b.wFresh[l] = true
			b.havePrev[l] = true
			switch {
			case conv&(1<<s) != 0 && b.strict[l] && (q.v11[s] <= 0 || q.v22[s] <= 0):
				// The reference reports a converged-but-degenerate warm
				// fit as a warm failure; rerun cold like FitScratchShared.
				b.startCold(l, st)
			case conv&(1<<s) != 0:
				b.finish(l, true, st)
			case b.iters[l] >= b.maxIter:
				// Iteration budget exhausted without convergence.
				b.abandon(l, st)
			}
		}
	}
}

// inverse opens lane l's sweep: the reference's determinant guard,
// then the inverse-scatter entries the weight passes read. It reports
// whether the lane iterates this sweep.
func (b *pairBatch) inverse(l int, st *RobustStats) bool {
	q, s := &b.qs[l>>2], l&3
	v11, v22, v12 := q.v11[s], q.v22[s], q.v12[s]
	det := v11*v22 - v12*v12
	if det <= 0 || v11 <= 0 || v22 <= 0 {
		// Scatter collapsed: strict runs rerun cold, cold runs accept
		// the current state (the reference's break).
		b.abandon(l, st)
		return false
	}
	b.iters[l]++
	q.i11[s] = v22 / det
	q.i22[s] = v11 / det
	q.i12[s] = -v12 / det
	return true
}

// abandon ends lane l's run where the reference iterate loop gives up
// (scatter collapse, sw == 0, budget exhausted): a strict warm run
// restarts cold, a cold run is accepted as it stands.
func (b *pairBatch) abandon(l int, st *RobustStats) {
	if b.strict[l] {
		b.startCold(l, st)
	} else {
		b.finish(l, false, st)
	}
}

// location runs the Huber w1 location pass for the quad at o, leaving
// each lane's weight sum and new center in the quad. The vector tier
// computes all four slots; the scalar tier only the lanes in act.
func (b *pairBatch) location(o, act int) {
	q := &b.qs[o>>2]
	if b.simd {
		off := o*b.span + b.t*4
		maronnaLocation4(&b.xt[off], &b.yt[off], b.m, q, b.k, b.k2)
		return
	}
	for s := range 4 {
		if act&(1<<s) != 0 {
			sw, sx, sy := maronnaLocation(b.xw[o+s], b.yw[o+s],
				q.t1[s], q.t2[s], q.i11[s], q.i22[s], q.i12[s], b.k, b.k2)
			q.sw[s], q.t1n[s], q.t2n[s] = sw, sx/sw, sy/sw
		}
	}
}

// scatter runs the Huber w2 scatter pass about the new centers for the
// quad at o, leaving the scatter sums in the quad and the weights in
// the weight tile (vector tier) or the lanes' weight rows (scalar).
func (b *pairBatch) scatter(o, act int) {
	q := &b.qs[o>>2]
	if b.simd {
		off := o*b.span + b.t*4
		maronnaScatter4(&b.xt[off], &b.yt[off], &b.wt[o*b.m], b.m, q, b.k2, act)
		return
	}
	for s := range 4 {
		if act&(1<<s) != 0 {
			q.n11[s], q.n22[s], q.n12[s] = maronnaScatter(b.xw[o+s], b.yw[o+s], b.wrow[o+s],
				q.t1n[s], q.t2n[s], q.i11[s], q.i22[s], q.i12[s], b.k2)
		}
	}
}

// advanceQuad is the sweep's tail for the lanes of q in act, the
// reference iterate loop from the scatter normalisation on, with the
// same expressions in the same order: the convergence test on the
// plain map's step, then, for lanes in prev, the safeguarded
// Anderson(1) extrapolation from the last two plain steps. It stores
// each lane's next state and (unless it converged) its history, and
// reports the lanes that converged. maronnaAdvance4 is its AVX2 form.
func advanceQuad(q *quad, act, prev int, fn, tol float64) (conv int) {
	for s := range 4 {
		if act&(1<<s) == 0 {
			continue
		}
		v11, v22, v12 := q.v11[s], q.v22[s], q.v12[s]
		t1n, t2n := q.t1n[s], q.t2n[s]
		n11, n22, n12 := q.n11[s]/fn, q.n22[s]/fn, q.n12[s]/fn
		den := math.Abs(v11) + math.Abs(v22) + math.Abs(v12)
		num := math.Abs(n11-v11) + math.Abs(n22-v22) + math.Abs(n12-v12)
		g := [5]float64{t1n, t2n, n11, n22, n12}
		f := [5]float64{t1n - q.t1[s], t2n - q.t2[s], n11 - v11, n22 - v22, n12 - v12}
		next := g
		if den > 0 && num/den < tol {
			conv |= 1 << s
		} else {
			if prev&(1<<s) != 0 {
				var fd, dd float64
				for c := range f {
					d := f[c] - q.pf[c][s]
					fd += f[c] * d
					dd += d * d
				}
				if dd > 0 {
					if theta := fd / dd; math.Abs(theta) < 16 {
						var a [5]float64
						for c := range a {
							a[c] = g[c] - theta*(g[c]-q.pg[c][s])
						}
						// Safeguard: extrapolate only onto a usable scatter.
						if a[2] > 0 && a[3] > 0 && a[2]*a[3]-a[4]*a[4] > 0 {
							next = a
						}
					}
				}
			}
			for c := range g {
				q.pg[c][s], q.pf[c][s] = g[c], f[c]
			}
		}
		q.t1[s], q.t2[s] = next[0], next[1]
		q.v11[s], q.v22[s], q.v12[s] = next[2], next[3], next[4]
	}
	return conv
}

// finish builds lane l's Fit exactly as the reference does after its
// loop exits and finalizes the lane.
func (b *pairBatch) finish(l int, converged bool, st *RobustStats) {
	q, s := &b.qs[l>>2], l&3
	f := Fit{
		T1: q.t1[s], T2: q.t2[s],
		V11: q.v11[s], V22: q.v22[s], V12: q.v12[s],
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
	b.finalize(l, f, st)
}

// finalize publishes lane l's result, leaves its final weights in its
// row (scalar tier) or weight-tile column (vector tier) — the all-ones
// row when no scatter pass of the accepted run wrote them — records the
// window statistics, and marks the lane dead in its slot.
func (b *pairBatch) finalize(l int, f Fit, st *RobustStats) {
	q, s := &b.qs[l>>2], l&3
	if !b.wFresh[l] {
		if !b.simd {
			w := b.wrow[l]
			for i := range w {
				w[i] = 1
			}
		} else {
			base := (l&^3)*b.m + l&3
			for i := 0; i < b.m; i++ {
				b.wt[base+i*4] = 1
			}
		}
	}
	// Like padding, a dead lane sees zero inverse scatter until its
	// next window.
	q.i11[s], q.i22[s], q.i12[s] = 0, 0, 0
	b.fits[l] = f
	if st != nil {
		st.record(f, b.attempted[l])
	}
	b.dead[l] = true
}

// combine sets comb[l] to lane l's Combined coefficient
// (CombinedFromFit of its window, fit and final weights) for every
// loaded lane. The vector tier computes the weighted Pearson half of a
// quad in one kernel call over the day tiles and the weight tile.
func (b *pairBatch) combine() {
	if !b.simd {
		for l := 0; l < b.lanes; l++ {
			b.comb[l] = CombinedFromFit(b.xw[l], b.yw[l], b.fits[l].Rho, b.wrow[l])
		}
		return
	}
	m, off := b.m, b.t*4
	for o := 0; o < b.lanes; o += 4 {
		weightedPearson4(&b.xt[o*b.span+off], &b.yt[o*b.span+off], &b.wt[o*m], m, &b.wp)
		for s := 0; s < 4 && o+s < b.lanes; s++ {
			var wp float64
			if !(b.wp[0][s] <= 0) { // WeightedPearson's guard: NaN goes on
				wp = weightedCorr(b.wp[1][s], b.wp[2][s], b.wp[3][s])
			}
			b.comb[o+s] = clampCorr((b.fits[o+s].Rho + wp) / 2)
		}
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
