package core

import (
	"context"
	"sync"

	"marketminer/internal/engine"
	"marketminer/internal/taq"
)

// quoteBatchCap is the most quotes one batch carries. With the default
// edge depth of 256 messages it bounds the quotes in flight on one
// quote edge at 256 × 256 = 65 536 (4 MB of taq.Quote).
const quoteBatchCap = 256

// quoteBatch is the one message type on the collector → cleaner →
// ohlc-bars edges: a run of consecutive quotes in stream order. It
// travels as a pointer, so boxing it into an engine.Message allocates
// nothing, and it has exactly one owner at a time — the node that
// received it — which is what lets the cleaner filter it in place and
// the bar node hand it back to the pool.
//
// A batch is forwarded when it is full, when the stream ends, and when
// the source would otherwise wait for input (flush-on-idle): batches
// are as large as the backlog and no larger, so an idle feed sees
// one-quote batches and no quote waits on a timer.
type quoteBatch struct {
	quotes []taq.Quote
}

// batchPool recycles batches between the bar node, which is done with
// them, and the collector, which needs empty ones. It is a stack, so
// the batch reused next is the one most recently in cache; it never
// holds more batches than were in flight at once.
type batchPool struct {
	cap  int
	mu   sync.Mutex
	free []*quoteBatch
}

func (p *batchPool) get() *quoteBatch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return &quoteBatch{quotes: make([]taq.Quote, 0, p.cap)}
}

func (p *batchPool) put(b *quoteBatch) {
	b.quotes = b.quotes[:0]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// collectorSource is the collector node: it runs source, counts its
// quotes into in, and forwards them as batches — each full one, the
// partial one whenever the source says it is about to wait, and the
// last one when the source returns.
func collectorSource(source QuoteSource, pool *batchPool, in *int) engine.SourceFunc {
	return func(ctx context.Context, emit engine.Emit) error {
		out := batcher{pool: pool, emit: emit, cur: pool.get()}
		err := source(withIdleFlush(ctx, out.flush), func(q taq.Quote) bool {
			*in++
			return out.add(q)
		})
		out.flush()
		return err
	}
}

// batcher is the collector node's output side: it gathers the source's
// quotes into the current batch and emits it when full or flushed.
type batcher struct {
	pool *batchPool
	emit engine.Emit
	cur  *quoteBatch
}

// add appends q, forwarding the batch if that filled it; false means
// the graph is shutting down.
func (b *batcher) add(q taq.Quote) bool {
	b.cur.quotes = append(b.cur.quotes, q)
	if len(b.cur.quotes) < cap(b.cur.quotes) {
		return true
	}
	return b.flush()
}

// flush forwards the current batch if it holds anything; false means
// the graph is shutting down.
func (b *batcher) flush() bool {
	if len(b.cur.quotes) == 0 {
		return true
	}
	ok := b.emit(b.cur)
	b.cur = b.pool.get()
	return ok
}

// idleFlushKey carries the collector node's flush to the one source
// that waits for input. QuoteSource's signature is fixed and sources
// are wrapped by callers (chaos, tracing, supervision), so ctx is the
// only thing that reaches ChannelSource through them.
type idleFlushKey struct{}

// withIdleFlush returns ctx carrying flush; a nil flush removes one.
// flush must only be called from the goroutine that calls the
// collector's emit.
func withIdleFlush(ctx context.Context, flush func() bool) context.Context {
	return context.WithValue(ctx, idleFlushKey{}, flush)
}

// idleFlush returns the flush ctx carries, or a no-op for a source run
// outside a pipeline.
func idleFlush(ctx context.Context) func() bool {
	if flush, _ := ctx.Value(idleFlushKey{}).(func() bool); flush != nil {
		return flush
	}
	return func() bool { return true }
}

// cleanerProc is the cleaner node: it filters a batch in place through
// keep, one quote at a time and in order, counts survivors into clean,
// and forwards the batch if any quote survived.
func cleanerProc(keep func(context.Context, taq.Quote) (bool, error), pool *batchPool, clean *int) engine.ProcFunc {
	return func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		b := m.(*quoteBatch)
		kept := b.quotes[:0]
		for _, q := range b.quotes {
			ok, err := keep(ctx, q)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, q)
			}
		}
		*clean += len(kept)
		b.quotes = kept
		if len(kept) == 0 {
			pool.put(b)
			return nil
		}
		emit(b)
		return nil
	}
}
