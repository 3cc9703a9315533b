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
	Panics      int64 // panics recovered
	Quarantined int64 // messages journaled + skipped after their panic
	Skipped     int64 // messages skipped because their key was already quarantined
}

// Stage wraps an engine.ProcFunc with per-message panic isolation: a
// panic is recovered and the message quarantined (journaled and
// skipped) on its first attempt rather than re-fed. A message is never
// retried, because stages fold each message into cumulative state and
// a second attempt would apply its side effects twice. Emits are
// buffered and forwarded only after a clean return, so a message that
// panics forwards nothing. Returned (non-panic) errors pass through
// untouched: an explicit error is an intentional stream abort.
//
// A clean message resets the consecutive-failure count; maxFailures
// consecutive panics open the circuit and fail the graph, as does a
// single panic on an unquarantinable message.
type Stage struct {
	name        string
	maxFailures int
	quar        *Quarantine
	key         KeyFunc

	mu          sync.Mutex
	rep         StageReport
	consecutive int
}

// NewStage returns a stage supervisor whose circuit opens after
// maxFailures consecutive panics (≤ 0 means 8, as for a Policy).
// quar may be nil (a panic then always fails the graph); key may be
// nil (no message is quarantinable).
func NewStage(name string, maxFailures int, quar *Quarantine, key KeyFunc) *Stage {
	if maxFailures <= 0 {
		maxFailures = defaultMaxFailures
	}
	return &Stage{name: name, maxFailures: maxFailures, quar: quar, key: key}
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
		metrics.Counter("supervise.panics").Inc()
		s.mu.Lock()
		s.rep.Panics++
		s.consecutive++
		failures := s.consecutive
		s.mu.Unlock()
		if failures >= s.maxFailures {
			metrics.Counter("supervise.circuit_open").Inc()
			return &CircuitError{Name: s.name, Failures: failures, Last: err}
		}
		if !keyed || s.quar == nil {
			return err
		}
		if qerr := s.quar.Record(s.name, key, err.Error()); qerr != nil {
			return qerr
		}
		s.mu.Lock()
		s.rep.Quarantined++
		s.mu.Unlock()
		metrics.Counter("supervise.quarantined").Inc()
		return nil
	}
}
