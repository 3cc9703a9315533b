package broker

import (
	"context"
	"runtime"

	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
)

// pairRings holds the trailing-W correlation windows of a partition's
// pairs, from which a processor derives C̄ and divergence crossings.
// The windows are one slot-major ring — vals[slot·np+idx], slot head
// the oldest once full — so a push overwrites one row and C̄ is W row
// additions across all pairs. Every value in the ring is also in the
// partition log, which is what makes it rebuildable from the log after
// a crash; diverged (whether each pair's newest C sits below its band)
// is a function of the newest logged record, so it is too.
type pairRings struct {
	pairs    []int
	w        int
	vals     []float64
	head, n  int // oldest slot, filled slots
	diverged []bool
}

func newPairRings(pairs []int, w int) *pairRings {
	return &pairRings{pairs: pairs, w: w, vals: make([]float64, w*len(pairs)), diverged: make([]bool, len(pairs))}
}

// push stores one interval's coefficients in the slot after the
// newest, dropping the oldest once W are held.
func (r *pairRings) push(c []float64) {
	slot := (r.head + r.n) % r.w
	if r.n == r.w {
		r.head = (r.head + 1) % r.w
	} else {
		r.n++
	}
	copy(r.vals[slot*len(c):], c)
}

// gather fills the C column of one interval's signal columns from the
// matrix triangle tri (pair-id order) at this partition's pairs. The
// columns are a released record's (partitionLog.spare) when cols has
// them, and are allocated otherwise.
func (r *pairRings) gather(tri []float64, cols feed.Interval) feed.Interval {
	np := len(r.pairs)
	if len(cols.C) != np {
		vals := make([]float64, 2*np)
		cols.C, cols.Cbar, cols.Kind = vals[:np:np], vals[np:], make([]uint8, np)
	}
	for idx, k := range r.pairs {
		cols.C[idx] = tri[k]
	}
	return cols
}

// fold ingests one interval's columns from gather and produces this
// partition's signal columns, one index per owned pair. C̄ always
// folds from zero in chronological slot order — four rows per pass,
// but each pair's sum still adds its rows oldest first, one at a time
// — so the value is path-independent: a processor that lived through
// the stream and one that rebuilt its ring from the log compute
// bit-identical C̄ — the keystone of the no-loss/no-dup delivery
// proof. The crossing kind compares this interval's divergence with
// the one carried from the previous interval.
func (r *pairRings) fold(cols feed.Interval, d float64) (c, cbar []float64, kind []uint8) {
	np := len(r.pairs)
	c, cbar, kind = cols.C, cols.Cbar, cols.Kind
	clear(cbar)
	r.push(c)
	row := func(i int) []float64 { // the i-th oldest row
		return r.vals[(r.head+i)%r.w*np:][:len(cbar)]
	}
	i := 0
	for ; i+4 <= r.n; i += 4 { // four rows per pass, oldest first
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		for idx := range cbar {
			s := cbar[idx]
			s += r0[idx]
			s += r1[idx]
			s += r2[idx]
			s += r3[idx]
			cbar[idx] = s
		}
	}
	for ; i < r.n; i++ {
		for idx, v := range row(i) {
			cbar[idx] += v
		}
	}
	n := float64(r.n)
	for idx := range cbar {
		cbar[idx] /= n
		diverged := c[idx] < cbar[idx]*(1-d)
		switch {
		case diverged && !r.diverged[idx]:
			kind[idx] = KindDiverge
		case !diverged && r.diverged[idx]:
			kind[idx] = KindRevert
		default:
			kind[idx] = KindUpdate
		}
		r.diverged[idx] = diverged
	}
	return c, cbar, kind
}

// rebuild reconstructs the ring from the partition log as of
// endOffset: the C columns of its last ≤ W records, and the divergence
// of the newest — exactly what a processor that never died would hold
// after appending offset endOffset.
func (r *pairRings) rebuild(log *partitionLog, endOffset uint64, d float64) {
	r.head, r.n = 0, 0
	clear(r.diverged)
	recs := log.tail(endOffset, r.w)
	for i := range recs {
		r.push(recs[i].C)
	}
	if len(recs) > 0 {
		last := &recs[len(recs)-1]
		for idx := range r.diverged {
			r.diverged[idx] = last.C[idx] < last.Cbar[idx]*(1-d)
		}
	}
}

// correlate is the broker's correlation stage: one goroutine pushing
// the input log through the broker's one engine and appending each
// ready matrix's triangle to the matrix log, which it seals once the
// sealed input is drained. Every partition reads the same matrices, so
// each interval's correlation matrix is computed once.
func (b *Broker) correlate() {
	m := corr.NewMatrix(b.cfg.N)
	for cursor := 0; ; {
		w := b.watcher()
		entry, ok, drained := b.input.get(cursor)
		if drained {
			b.matrices.seal()
			b.wake()
			return
		}
		if !ok {
			if !b.wait(b.ctx, w, b.cfg.LeaseEvery) {
				return
			}
			continue
		}
		// OfferReturns validated the vector, so the push cannot fail.
		ready, err := b.eng.PushInto(entry.rets, m)
		cursor++
		b.input.release(cursor)
		if err != nil {
			b.cfg.Logf("broker: correlation stage stopped at interval %d: %v", entry.s, err)
			return
		}
		if ready && b.matrices.offer(entry.s, m.Values()) {
			b.wake()
		}
	}
}

// runProcessor is one incarnation of partition p's processor under
// generation gen. Its log is its whole state: the record count is its
// cursor into the matrix log (every ready matrix yields one record when
// the partition has pairs) and the last W records rebuild its rings.
// It publishes fenced signal batches. A hard kill exits the goroutine
// without returning (the supervisor never sees it — only the lease
// loop does); a superseded generation returns nil and falls silent.
func (b *Broker) runProcessor(ctx context.Context, p *partition, gen int, progress func()) error {
	rings := newPairRings(p.pairs, b.cfg.W)
	end := p.log.end()
	rings.rebuild(p.log, end, b.cfg.D)
	cursor := p.log.records()
	if cursor > 0 {
		metrics.Counter("broker.processor_restores").Inc()
		b.cfg.Logf("broker: partition %d gen %d resumed at record %d offset %d", p.id, gen, cursor, end)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := b.watcher()
		f, s, cols, ok, drained := b.next(p, gen, cursor, rings)
		switch f {
		case killed:
			runtime.Goexit() // SIGKILL analogue: no flush, no return
		case superseded:
			return nil
		}
		if drained {
			b.apply(&event{kind: evFinish, part: p.id, gen: gen}, func(*brokerState) { p.log.seal() })
			return nil
		}
		if !ok {
			if !b.wait(ctx, w, b.cfg.LeaseEvery) {
				return ctx.Err()
			}
			continue
		}
		cursor++
		c, cbar, kind := rings.fold(cols, b.cfg.D)
		if b.apply(&event{kind: evPublish, part: p.id, gen: gen, n: len(c)}, func(*brokerState) {
			p.log.appendInterval(s, c, cbar, kind)
		}) != holds {
			return nil // superseded mid-publish
		}
		b.releaseMatrices()
		progress()
	}
}

// next beats generation gen's lease on partition p and, in the same
// critical section, gathers the partition's columns from matrix
// cursor. A killed processor learns its fate here; a superseded one
// (lease already reassigned) must fall silent. While gen holds the
// lease its cursor is the partition's record count, which the matrix
// log's release floor never passes; reading all of the triangle under
// the lock that fences the beat keeps a superseded generation, whose
// cursor the floor may have passed and whose triangle an offer may
// refill, from reading.
func (b *Broker) next(p *partition, gen, cursor int, rings *pairRings) (f fate, s int, cols feed.Interval, ok, drained bool) {
	f = b.apply(&event{kind: evBeat, part: p.id, gen: gen, now: b.cfg.Now()}, func(*brokerState) {
		if len(p.pairs) == 0 {
			// A pairless partition logs nothing, so it reads nothing: it
			// only waits for the seal.
			drained = b.matrices.isSealed()
			return
		}
		var e inputEntry
		if e, ok, drained = b.matrices.get(cursor); ok {
			s, cols = e.s, rings.gather(e.rets, p.log.spare())
		}
	})
	return f, s, cols, ok, drained
}
