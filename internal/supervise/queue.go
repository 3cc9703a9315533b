package supervise

import (
	"context"
	"sync/atomic"
)

// DropPolicy selects what a full Queue does with a new message.
type DropPolicy int

const (
	// Block applies backpressure: Push waits for space (the lossless
	// default — the ingress queue of the supervised pipeline uses it,
	// so chaos-level bursts slow the source instead of losing quotes).
	Block DropPolicy = iota
	// DropOldest evicts the oldest queued message to admit the new one
	// (a live ticker display wants the freshest data).
	DropOldest
	// DropNewest discards the incoming message when full.
	DropNewest
)

// QueueStats is a snapshot of a queue's accounting.
type QueueStats struct {
	Pushed    int64 // messages admitted
	Popped    int64 // messages consumed
	Dropped   int64 // messages lost to DropOldest/DropNewest
	Blocked   int64 // Block-mode pushes that had to wait (backpressure events)
	HighWater int64 // maximum observed depth
}

// Queue is a bounded FIFO with explicit backpressure and drop
// accounting, the instrumented replacement for a bare channel between
// a quote source and the DAG. Pushes and Pops may run from concurrent
// goroutines — the counters are atomic, and at quiescence (all
// producers stopped, queue drained) they reconcile exactly:
// DropOldest admits everything, so Pushed == Popped + Dropped;
// DropNewest discards at the door, so Offered == Pushed + Dropped and
// Pushed == Popped. Close is still a single-owner call, made only
// after every producer's final Push.
type Queue[T any] struct {
	ch      chan T
	pol     DropPolicy
	pushed  atomic.Int64
	popped  atomic.Int64
	dropped atomic.Int64
	blocked atomic.Int64
	high    atomic.Int64
}

// NewQueue returns a queue with the given capacity (clamped to ≥ 1).
func NewQueue[T any](capacity int, pol DropPolicy) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{ch: make(chan T, capacity), pol: pol}
}

// Push offers v. It returns false only when ctx was cancelled before
// the message could be admitted (Block mode); drop modes always return
// true, counting any loss in Stats.
func (q *Queue[T]) Push(ctx context.Context, v T) bool {
	switch q.pol {
	case DropNewest:
		select {
		case q.ch <- v:
			q.admitted()
		default:
			q.dropped.Add(1)
		}
		return true
	case DropOldest:
		for {
			select {
			case q.ch <- v:
				q.admitted()
				return true
			default:
			}
			select {
			case <-q.ch:
				q.dropped.Add(1)
			default:
			}
		}
	default: // Block
		select {
		case q.ch <- v:
			q.admitted()
			return true
		default:
			q.blocked.Add(1)
		}
		select {
		case q.ch <- v:
			q.admitted()
			return true
		case <-ctx.Done():
			return false
		}
	}
}

func (q *Queue[T]) admitted() {
	q.pushed.Add(1)
	depth := int64(len(q.ch))
	for {
		cur := q.high.Load()
		if depth <= cur || q.high.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// Pop takes the next message; ok=false means the queue is closed and
// drained, or ctx was cancelled.
func (q *Queue[T]) Pop(ctx context.Context) (v T, ok bool) {
	select {
	case v, ok = <-q.ch:
		if ok {
			q.popped.Add(1)
		}
		return v, ok
	case <-ctx.Done():
		var zero T
		return zero, false
	}
}

// TryPop takes the next message if one is queued; ok=false means none
// is (the queue is empty, or closed and drained) and Pop tells which.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	select {
	case v, ok = <-q.ch:
		if ok {
			q.popped.Add(1)
		}
	default:
	}
	return v, ok
}

// Close marks the end of the stream. Producer-side only, after the
// final Push.
func (q *Queue[T]) Close() { close(q.ch) }

// Stats snapshots the queue accounting.
func (q *Queue[T]) Stats() QueueStats {
	return QueueStats{
		Pushed:    q.pushed.Load(),
		Popped:    q.popped.Load(),
		Dropped:   q.dropped.Load(),
		Blocked:   q.blocked.Load(),
		HighWater: q.high.Load(),
	}
}
