package broker

import (
	"context"
	"fmt"
	"runtime"

	"marketminer/internal/corr"
	"marketminer/internal/metrics"
)

// procState is a partition processor's complete resumable state: the
// input cursor, the log end offset the cursor corresponds to, and the
// engine warm state. Cursor and EndOffset are captured in the same
// critical section as the engine snapshot, so a restore replays input
// from exactly where the log ends.
type procState struct {
	Cursor    int                  `json:"cursor"`
	EndOffset uint64               `json:"end_offset"`
	Engine    *corr.EngineSnapshot `json:"engine"`
}

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

// step ingests one matrix interval and produces this partition's
// signal columns, one index per owned pair. C̄ always folds from zero
// in chronological slot order — four rows per pass, but each pair's sum
// still adds its rows oldest first, one at a time — so the value is
// path-independent: a processor that lived through the stream and one
// that rebuilt its ring from the log compute bit-identical C̄ — the
// keystone of the no-loss/no-dup delivery proof. The crossing kind
// compares this interval's divergence with the one carried from the
// previous interval.
func (r *pairRings) step(m *corr.Matrix, d float64) (c, cbar []float64, kind []uint8) {
	np := len(r.pairs)
	cols := make([]float64, 2*np)
	c, cbar, kind = cols[:np:np], cols[np:], make([]uint8, np)
	for idx, k := range r.pairs {
		c[idx] = m.AtPair(k)
	}
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

// stateFingerprint extends the engine fingerprint with the signal
// parameters, so a snapshot from a differently-tuned broker never
// restores.
func (b *Broker) stateFingerprint(eng *corr.OnlineEngine) string {
	return fmt.Sprintf("%s|w=%d|d=%g", eng.Fingerprint(), b.cfg.W, b.cfg.D)
}

// runProcessor is one incarnation of partition p's processor under
// generation gen. It restores from the state store when possible,
// replays the input log from its cursor, and publishes fenced signal
// batches. A hard kill exits the goroutine without returning (the
// supervisor never sees it — only the lease checker does); a
// superseded generation returns nil and falls silent.
func (b *Broker) runProcessor(ctx context.Context, p *partition, gen int, progress func()) error {
	engCfg := corr.EngineConfig{
		Type:    b.cfg.Type,
		M:       b.cfg.M,
		Workers: 1, // the broker's parallelism is across partitions
		Pairs:   p.pairs,
	}
	eng, err := corr.NewOnlineEngine(engCfg, b.cfg.N)
	if err != nil {
		return err
	}
	rings := newPairRings(p.pairs, b.cfg.W)
	m := corr.NewMatrix(b.cfg.N) // every push overwrites the owned pairs' slots
	fp := b.stateFingerprint(eng)
	cursor := 0
	var st procState
	if err := b.store.load(p.id, fp, &st); err == nil && st.Engine != nil {
		if err := eng.Restore(st.Engine); err == nil {
			cursor = st.Cursor
			rings.rebuild(p.log, st.EndOffset, b.cfg.D)
			metrics.Counter("broker.processor_restores").Inc()
			b.cfg.Logf("broker: partition %d gen %d restored at cursor %d offset %d", p.id, gen, cursor, st.EndOffset)
		} else {
			b.cfg.Logf("broker: partition %d snapshot rejected (%v); cold start", p.id, err)
		}
	}

	sinceSnap := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch b.leaseBeat(p, gen) {
		case beatKilled:
			runtime.Goexit() // SIGKILL analogue: no flush, no return
		case beatSuperseded:
			return nil
		}
		entry, ok := b.input.get(cursor)
		if !ok {
			if b.input.isSealed() {
				b.finishPartition(p, gen)
				return nil
			}
			if !b.waitWake(ctx, b.cfg.LeaseEvery) {
				return ctx.Err()
			}
			continue
		}
		// Replay detection must precede the publish: once this interval
		// is appended, lastLoggedS catches up to entry.s and the
		// distinction is gone.
		replaying := entry.s <= p.log.lastLoggedS()
		ready, err := eng.PushInto(entry.rets, m)
		if err != nil {
			return err // supervised: restart replays from the snapshot
		}
		cursor++
		if ready {
			c, cbar, kind := rings.step(m, b.cfg.D)
			// Replay deduplication: intervals already in the log (we are
			// re-deriving them after a crash) are regenerated to warm
			// the rings but never re-appended.
			if !replaying && !b.publish(p, gen, entry.s, c, cbar, kind) {
				return nil // superseded mid-publish
			}
		}
		progress()
		if replaying {
			// No state saves mid-replay: a snapshot taken here would
			// pair a lagging Cursor with the full log's EndOffset, and a
			// restore from it would re-push intervals whose C values are
			// already in the rebuilt rings, corrupting the W-window.
			continue
		}
		sinceSnap++
		if sinceSnap >= b.cfg.SnapshotEvery {
			sinceSnap = 0
			snap := procState{Cursor: cursor, EndOffset: p.log.end(), Engine: eng.Snapshot()}
			if err := b.store.save(p.id, fp, snap); err != nil {
				b.cfg.Logf("broker: partition %d snapshot save: %v", p.id, err)
			}
		}
	}
}

// publish appends one interval under generation fencing and wakes
// subscribers. false means this processor has been superseded.
func (b *Broker) publish(p *partition, gen int, s int, c, cbar []float64, kind []uint8) bool {
	p.mu.Lock()
	if p.gen != gen || p.killed {
		p.mu.Unlock()
		return false
	}
	p.log.appendInterval(s, c, cbar, kind)
	p.mu.Unlock()
	metrics.Counter("broker.signals_published").Add(int64(len(c)))
	b.wake()
	return true
}

// finishPartition seals partition p's log once the sealed input is
// fully consumed, still under generation fencing.
func (b *Broker) finishPartition(p *partition, gen int) {
	p.mu.Lock()
	if p.gen != gen || p.killed {
		p.mu.Unlock()
		return
	}
	p.done = true
	p.mu.Unlock()
	p.log.seal()
	b.wake()
}
