// Package sched is a bounded-worker job scheduler emulating the Sun
// Grid Engine farm of the paper's Approach 2 ("creating scripts which
// sent out independent Matlab jobs to a Sun Grid Engine scheduler").
// Jobs are independent calls of one indexed function; the pool bounds
// concurrency and cancels outstanding work on the first error — the
// same submit/wait contract an SGE array job gives, with goroutines
// standing in for cluster slots.
//
// Beyond the Pool, the package hosts the deterministic-parallelism
// primitives the engines build on: Map, which writes result i of job i
// into a dense slice so the output ordering is invariant to worker
// count and interleaving; Steal, a tile-claiming counter/deque that
// lets idle workers take tiles from slow ones without changing which
// tile computes which output; and Meter, which samples per-worker
// utilisation for the scaling experiments. The contract throughout:
// scheduling choices may change timing, never results.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool. The zero value is unusable; use
// New.
type Pool struct {
	workers int
}

// New returns a pool with the given concurrency (clamped to ≥ 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Map executes fn(i) for i in [0, n), at most the pool's worker count
// at a time. This is the array-job form: the index plays the role of
// SGE_TASK_ID.
func (p *Pool) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n < 0 {
		return errors.New("sched: negative job count")
	}
	if fn == nil {
		return errors.New("sched: nil function")
	}
	if n == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	workers := p.workers
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case <-ctx.Done():
					return
				default:
				}
				if err := safeJob(ctx, i, fn); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// safeJob runs one job, converting a panic into an error so a single
// bad unit cancels the batch cleanly (workers joined, Map returns an
// error) instead of crashing the whole process mid-sweep.
func safeJob(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(ctx, i)
}
