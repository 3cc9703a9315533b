// Package supervise is the fault-tolerance runtime around the stream
// engine and its network clients: restart policies with jittered
// exponential backoff and a max-restart circuit breaker (Retry, the one
// redial loop of the feed collector, broker subscriber and farm
// worker; Run, the same loop with panic isolation), per-message panic
// isolation for DAG stages with poison-message quarantine, bounded
// queues with explicit backpressure and drop accounting,
// deadline-bounded graceful drain, and CRC-guarded atomic-rename
// snapshots for warm state.
//
// The paper's MarketMiner is a long-running platform fed by live TAQ
// data; its MPI ranks were supervised by the cluster scheduler. In the
// Go rewrite the process itself must play scheduler: a panicking stage
// or a poisoned quote must cost one message or one restart, never the
// day's correlation state. Everything here is deterministic under an
// injected clock and rng, so the restart machinery itself is testable
// to the same bit-for-bit standard as the kernels (see DESIGN.md
// §Robustness).
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"marketminer/internal/metrics"
)

// Policy configures restart and retry behaviour for one supervised
// task or stage. The zero value of every field takes the documented
// default, so Policy{} is a usable production policy.
type Policy struct {
	// InitialBackoff is the delay before the first restart (default
	// 10ms); each consecutive failure doubles it, up to MaxBackoff
	// (default 2s). Each applied delay is jittered uniformly in
	// [d/2, d], so clients that lost the same server do not redial in
	// lockstep.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxFailures is the circuit breaker: this many consecutive
	// failures (restarts without progress, or poisoned messages
	// without a clean one in between) abort with a CircuitError
	// instead of retrying forever (default 8).
	MaxFailures int
	// Retries is the number of times a Stage re-runs a message whose
	// processing panicked before quarantining it (default 2). Retried
	// work must be idempotent or harmless to repeat; stages that are
	// not should set Retries < 0, which disables retrying (a first
	// panic quarantines immediately).
	Retries int
	// Jitter, when non-nil, replaces the backoff jitter rng; inject a
	// seeded one to pin a test's exact schedule. The default draws
	// from math/rand's process-wide source, which is seeded afresh in
	// every process, so two processes never share a schedule.
	Jitter *rand.Rand
	// Sleep, when non-nil, replaces the real backoff wait; it must
	// return false iff ctx was cancelled before the delay elapsed.
	Sleep func(ctx context.Context, d time.Duration) bool
}

func (p Policy) withDefaults() Policy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.MaxFailures <= 0 {
		p.MaxFailures = 8
	}
	if p.Retries == 0 {
		p.Retries = 2
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	if p.Sleep == nil {
		p.Sleep = func(ctx context.Context, d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return true
			case <-ctx.Done():
				return false
			}
		}
	}
	return p
}

// Redial is the policy of a network client that reconnects to a
// server: the first delay is backoff, doubling to a cap of 32×backoff,
// and maxAttempts consecutive failures without progress give up
// (0 = retry until the task ends or ctx dies).
func Redial(backoff time.Duration, maxAttempts int) Policy {
	if maxAttempts <= 0 {
		maxAttempts = math.MaxInt
	}
	return Policy{InitialBackoff: backoff, MaxBackoff: 32 * backoff, MaxFailures: maxAttempts}
}

// backoff computes jittered exponential delays. Safe for concurrent
// use (stage workers may back off in parallel).
type backoff struct {
	pol Policy
	mu  sync.Mutex // guards an injected pol.Jitter
}

// delay returns the jittered backoff for the given consecutive-failure
// count (1-based).
func (b *backoff) delay(failure int) time.Duration {
	d := b.pol.InitialBackoff
	for i := 1; i < failure; i++ {
		if d *= 2; d >= b.pol.MaxBackoff {
			d = b.pol.MaxBackoff
			break
		}
	}
	n := int64(d/2) + 1
	if b.pol.Jitter == nil {
		return d/2 + time.Duration(rand.Int63n(n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return d/2 + time.Duration(b.pol.Jitter.Int63n(n))
}

// permanentError marks a task failure that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so that Retry (and Run) return err at once
// instead of retrying: a refused handshake or a deterministic compute
// error fails the same way on every attempt. Permanent(nil) is nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// CircuitError reports an opened circuit breaker: the supervised unit
// failed MaxFailures consecutive times without progress. Name is empty
// when Retry, rather than Run, gave up.
type CircuitError struct {
	Name     string
	Failures int
	Last     error
}

func (e *CircuitError) Error() string {
	return fmt.Sprintf("supervise: %s circuit open after %d consecutive failures: %v", e.Name, e.Failures, e.Last)
}

func (e *CircuitError) Unwrap() error { return e.Last }

// PanicError reports a panic recovered by the supervision layer.
type PanicError struct {
	Name  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: %s panicked: %v\n%s", e.Name, e.Value, e.Stack)
}

// runRecovered invokes fn, converting a panic into a *PanicError.
func runRecovered(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Name: name, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// TaskReport summarises one supervised task run.
type TaskReport struct {
	Restarts int   // times the task was restarted after a failure
	Panics   int   // failures that were panics (vs returned errors)
	LastErr  error // most recent failure (nil after a clean finish)
}

// Retry runs task until it returns nil, returns an error wrapped by
// Permanent (Retry then returns the unwrapped error), ctx dies
// (ctx.Err()), or Policy.MaxFailures consecutive attempts fail without
// progress (a *CircuitError whose Last is the final failure). Between
// failures it waits the policy's jittered backoff.
//
// task receives a progress callback, to be called from task's own
// goroutine; calling it marks the current attempt as having made
// progress, which resets the consecutive-failure count — so a task
// that fails at a *different* point each time keeps being retried (it
// is getting somewhere, e.g. resuming further from each snapshot),
// while one that fails instantly every time gives up after
// MaxFailures attempts.
//
// Retry does not recover panics: a panicking task crashes the caller.
// Run adds that isolation.
func Retry(ctx context.Context, p Policy, task func(ctx context.Context, progress func()) error) error {
	p = p.withDefaults()
	bo := &backoff{pol: p}
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed := false
		err := task(ctx, func() { progressed = true })
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if progressed {
			failures = 0
		}
		failures++
		if failures >= p.MaxFailures {
			return &CircuitError{Failures: failures, Last: err}
		}
		if !p.Sleep(ctx, bo.delay(failures)) {
			return ctx.Err()
		}
	}
}

// Run is Retry for an in-process task: a panic counts as a failure
// (a *PanicError) instead of crashing the process, the circuit error
// carries name, and restarts, panics and opened circuits are counted
// in the report and the supervise.* metrics.
func Run(ctx context.Context, name string, p Policy, task func(ctx context.Context, progress func()) error) (TaskReport, error) {
	var rep TaskReport
	err := Retry(ctx, p, func(ctx context.Context, progress func()) error {
		if rep.LastErr != nil {
			rep.Restarts++
			metrics.Counter("supervise.restarts").Inc()
		}
		err := runRecovered(name, func() error { return task(ctx, progress) })
		if _, ok := err.(*PanicError); ok {
			rep.Panics++
		}
		rep.LastErr = err
		return err
	})
	var ce *CircuitError
	if errors.As(err, &ce) {
		ce.Name = name
		metrics.Counter("supervise.circuit_open").Inc()
	}
	return rep, err
}

// GracefulDrain coordinates a deadline-bounded stop: it waits for done
// while ctx is live; once ctx is cancelled it allows the pipeline up
// to timeout to finish in-flight work, then calls force (the hard
// cancel) and waits for done unconditionally. It returns true when the
// drain completed without forcing.
//
// The caller wires the soft side itself (stop the source when ctx
// dies); GracefulDrain owns only the deadline and the escalation.
func GracefulDrain(ctx context.Context, done <-chan struct{}, timeout time.Duration, force func()) bool {
	select {
	case <-done:
		return true
	case <-ctx.Done():
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		force()
		<-done
		return false
	}
}
