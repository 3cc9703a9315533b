package supervise

import (
	"context"
	"sync"

	"marketminer/internal/engine"
	"marketminer/internal/metrics"
)

// KeyFunc derives a stable quarantine key for a message. ok=false
// marks the message as unquarantinable: a stage that keeps failing on
// it fails the graph instead of skipping it, which is the right call
// for internally-generated messages (a panic there is a logic bug, not
// bad input data).
type KeyFunc func(msg engine.Message) (key string, ok bool)

// StageReport is a snapshot of one supervised stage's counters.
type StageReport struct {
	Name        string
	Processed   int64 // messages that completed cleanly
	Panics      int64 // panics recovered (including retried attempts)
	Retries     int64 // re-executions after a recovered panic
	Quarantined int64 // messages journaled + skipped after exhausted retries
	Skipped     int64 // messages skipped because their key was already quarantined
}

// Stage wraps an engine.ProcFunc with per-message panic isolation:
// a panic is recovered, the message retried up to Policy.Retries times
// with backoff, and — if it keeps killing the stage — quarantined
// (journaled and skipped) rather than re-fed forever. Emits from a
// failed attempt are buffered and discarded, so a retry can never
// double-deliver downstream. Returned (non-panic) errors pass through
// untouched: an explicit error is an intentional stream abort.
//
// A clean message resets the consecutive-failure count; MaxFailures
// consecutive quarantines (or exhausted retries on an unquarantinable
// message) open the circuit and fail the graph.
//
// Retries are at-least-once: a proc that mutated shared state before
// panicking will re-apply that work. Stages whose per-message effects
// are not idempotent should set Policy.Retries < 0 (quarantine on
// first panic).
type Stage struct {
	name string
	pol  Policy
	bo   *backoff
	quar *Quarantine
	key  KeyFunc

	mu          sync.Mutex
	rep         StageReport
	consecutive int
}

// NewStage returns a stage supervisor. quar may be nil (failing
// messages then always fail the graph once retries are exhausted);
// key may be nil (no message is quarantinable).
func NewStage(name string, p Policy, quar *Quarantine, key KeyFunc) *Stage {
	p = p.withDefaults()
	return &Stage{name: name, pol: p, bo: &backoff{pol: p}, quar: quar, key: key}
}

// Report snapshots the stage counters.
func (s *Stage) Report() StageReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.rep
	rep.Name = s.name
	return rep
}

// Wrap returns the supervised version of proc.
func (s *Stage) Wrap(proc engine.ProcFunc) engine.ProcFunc {
	return func(ctx context.Context, msg engine.Message, emit engine.Emit) error {
		var key string
		keyed := false
		if s.key != nil {
			key, keyed = s.key(msg)
		}
		if keyed && s.quar != nil && s.quar.Seen(key) {
			s.mu.Lock()
			s.rep.Skipped++
			s.mu.Unlock()
			metrics.Counter("supervise.skipped").Inc()
			return nil
		}

		var lastErr error
		for attempt := 0; attempt <= s.pol.Retries; attempt++ {
			if attempt > 0 {
				s.mu.Lock()
				s.rep.Retries++
				s.mu.Unlock()
				if !s.pol.Sleep(ctx, s.bo.delay(attempt)) {
					return ctx.Err()
				}
			}
			// Buffer emits: only a clean return forwards downstream, so
			// an attempt that emitted before panicking cannot double-send.
			var buffered []engine.Message
			err := runRecovered(s.name, func() error {
				return proc(ctx, msg, func(m engine.Message) bool {
					buffered = append(buffered, m)
					return true
				})
			})
			if err == nil {
				for _, m := range buffered {
					if !emit(m) {
						return nil // graph shutting down
					}
				}
				s.mu.Lock()
				s.rep.Processed++
				s.consecutive = 0
				s.mu.Unlock()
				return nil
			}
			if _, ok := err.(*PanicError); !ok {
				return err // explicit stream abort, not a crash
			}
			s.mu.Lock()
			s.rep.Panics++
			s.mu.Unlock()
			metrics.Counter("supervise.panics").Inc()
			lastErr = err
		}

		// Retries exhausted on a recurring panic.
		s.mu.Lock()
		s.consecutive++
		tripped := s.consecutive >= s.pol.MaxFailures
		s.mu.Unlock()
		if keyed && s.quar != nil && !tripped {
			if qerr := s.quar.Record(s.name, key, lastErr.Error()); qerr != nil {
				return qerr
			}
			s.mu.Lock()
			s.rep.Quarantined++
			s.mu.Unlock()
			metrics.Counter("supervise.quarantined").Inc()
			return nil
		}
		if tripped {
			metrics.Counter("supervise.circuit_open").Inc()
			s.mu.Lock()
			failures := s.consecutive
			s.mu.Unlock()
			return &CircuitError{Name: s.name, Failures: failures, Last: lastErr}
		}
		return lastErr
	}
}
