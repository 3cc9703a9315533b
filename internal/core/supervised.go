package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"marketminer/internal/corr"
	"marketminer/internal/engine"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
)

// SuperviseOptions runs the pipeline under the fault-tolerance
// runtime: data stages get panic isolation with poison-message
// quarantine, the correlation engine persists crash-safe warm-state
// snapshots, and cancellation drains the DAG gracefully instead of
// aborting mid-message. The master (order book) node is
// deliberately NOT wrapped: silently skipping an order basket would
// desynchronise the book, so order-path failures keep failing fast.
type SuperviseOptions struct {
	// QuarantinePath persists the poison-message set as a snapshot
	// ("" keeps it in memory: quarantine still works, but does not
	// survive restarts).
	QuarantinePath string
	// SnapshotPath, when set, persists the online correlation engine's
	// warm state (CRC-guarded, atomically replaced). On start-up an
	// existing valid snapshot is restored and already-processed
	// intervals are skipped; a corrupt or invalid one is discarded
	// with a warning and the engine cold-starts.
	SnapshotPath string
	// SnapshotEvery is the number of matrices between snapshots
	// (default 25).
	SnapshotEvery int
	// DrainTimeout, when positive, turns context cancellation into a
	// graceful drain: the source stops emitting, in-flight messages
	// finish within the timeout, and the pipeline returns its partial
	// results cleanly. Past the deadline the DAG is aborted.
	DrainTimeout time.Duration
	// Logf receives supervision warnings (default: discard).
	Logf func(format string, args ...any)
}

// SupervisionReport is the runtime's accounting for one pipeline run.
type SupervisionReport struct {
	// Stages are the per-stage panic/quarantine counters, in DAG order.
	Stages []supervise.StageReport
	// Resumed reports that engine warm state was restored; intervals
	// at or before ResumeCursor were skipped instead of recomputed.
	Resumed      bool
	ResumeCursor int
	// ColdStart carries the warning when a snapshot existed but was
	// rejected.
	ColdStart string
	// Snapshots counts warm-state snapshots written this run.
	Snapshots int
	// Drained reports that a cancelled run finished its graceful drain
	// within DrainTimeout (true too for runs that ended naturally).
	Drained bool
	// QuarantineHealed reports that the quarantine file was damaged
	// and only its intact records were kept; the next quarantined
	// message rewrites it whole.
	QuarantineHealed bool
}

// supervisor holds the per-run supervision state. A nil *supervisor is
// valid and wraps nothing, so the unsupervised path stays zero-cost.
type supervisor struct {
	opts   SuperviseOptions
	logf   func(format string, args ...any)
	quar   *supervise.Quarantine
	stages []*supervise.Stage
	report SupervisionReport

	cursor  int // last interval covered by the restored snapshot
	pending int // matrices since the last snapshot
}

func newSupervisor(opts *SuperviseOptions) (*supervisor, error) {
	if opts == nil {
		return nil, nil
	}
	s := &supervisor{opts: *opts, logf: opts.Logf, cursor: -1}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.opts.SnapshotEvery <= 0 {
		s.opts.SnapshotEvery = 25
	}
	quar, err := supervise.OpenQuarantine(opts.QuarantinePath)
	if err != nil {
		return nil, fmt.Errorf("core: quarantine: %w", err)
	}
	s.quar = quar
	if quar.Healed() {
		s.report.QuarantineHealed = true
		s.logf("core: quarantine file was damaged; kept %d intact records", quar.Len())
	}
	return s, nil
}

// wrap supervises one stage. Keys are namespaced by stage so the same
// message quarantined under one stage is not skipped by another. A
// panicking message goes straight to quarantine: every pipeline stage
// folds each message into cumulative state (filter EWMAs, price grids,
// correlation rings, strategy windows), so re-running it would
// double-apply its side effects.
func (s *supervisor) wrap(name string, key supervise.KeyFunc, proc engine.ProcFunc) engine.ProcFunc {
	if s == nil {
		return proc
	}
	namespaced := func(m engine.Message) (string, bool) {
		k, ok := key(m)
		if !ok {
			return "", false
		}
		return name + "|" + k, true
	}
	st := supervise.NewStage(name, 0, s.quar, namespaced)
	s.stages = append(s.stages, st)
	return st.Wrap(proc)
}

// wrapQuote supervises the cleaner's per-quote decision. Batches are
// unpacked through it one quote at a time, so a supervised stage still
// sees, keys, counts and quarantines single quotes: a poison quote in
// the middle of a batch costs exactly that quote.
func (s *supervisor) wrapQuote(name string, keep func(taq.Quote) bool) func(context.Context, taq.Quote) (bool, error) {
	if s == nil {
		return func(_ context.Context, q taq.Quote) (bool, error) { return keep(q), nil }
	}
	stage := s.wrap(name, quoteKey, func(_ context.Context, m engine.Message, emit engine.Emit) error {
		if keep(m.(taq.Quote)) {
			emit(m)
		}
		return nil
	})
	return func(ctx context.Context, q taq.Quote) (bool, error) {
		kept := false
		err := stage(ctx, q, func(engine.Message) bool {
			kept = true
			return true
		})
		return kept, err
	}
}

// restore loads the engine snapshot, if any. Invalid snapshots are
// logged and discarded: a wrong warm state must never beat a cold one.
func (s *supervisor) restore(online *corr.OnlineEngine, fingerprint string) {
	if s == nil || s.opts.SnapshotPath == "" {
		return
	}
	var st engineState
	err := supervise.LoadSnapshot(s.opts.SnapshotPath, fingerprint, &st)
	switch {
	case err == nil:
		if rerr := online.Restore(st.Engine); rerr != nil {
			s.report.ColdStart = rerr.Error()
			s.logf("core: snapshot rejected, cold-starting: %v", rerr)
			return
		}
		s.cursor = st.Cursor
		s.report.Resumed = true
		s.report.ResumeCursor = st.Cursor
		s.logf("core: resumed correlation engine from snapshot (interval %d)", st.Cursor)
	case errors.Is(err, supervise.ErrNoSnapshot):
		// Fresh day.
	default:
		s.report.ColdStart = err.Error()
		s.logf("core: snapshot unusable, cold-starting: %v", err)
	}
}

// skip reports whether interval S is already covered by the restored
// snapshot (its returns are inside the restored windows).
func (s *supervisor) skip(interval int) bool {
	return s != nil && s.report.Resumed && interval <= s.cursor
}

// snapshot persists warm state after a matrix if one is due.
func (s *supervisor) snapshot(online *corr.OnlineEngine, fingerprint string, interval int) error {
	if s == nil || s.opts.SnapshotPath == "" {
		return nil
	}
	s.pending++
	if s.pending < s.opts.SnapshotEvery {
		return nil
	}
	s.pending = 0
	st := engineState{Cursor: interval, Engine: online.Snapshot()}
	if err := supervise.SaveSnapshot(s.opts.SnapshotPath, fingerprint, st); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	s.report.Snapshots++
	return nil
}

// engineState is the snapshot payload: engine warm state plus the last
// interval it covers, so a resumed run knows what to skip.
type engineState struct {
	Cursor int                  `json:"cursor"`
	Engine *corr.EngineSnapshot `json:"engine"`
}

// stopOnCancel makes the source observe the user context while the
// graph runs detached: on cancellation the stream simply ends, which
// lets every downstream stage drain instead of being aborted.
func stopOnCancel(source QuoteSource, userCtx context.Context) QuoteSource {
	return func(ctx context.Context, emit func(taq.Quote) bool) error {
		return source(ctx, func(q taq.Quote) bool {
			if userCtx.Err() != nil {
				return false
			}
			return emit(q)
		})
	}
}

// Quarantine keys: a stable identity per message type, so a poison
// message hit again on a later run (persistent journal) is skipped
// before it can panic the stage again. Messages without a natural
// identity (ticks, baskets) report ok=false and are never journaled.

func quoteKey(m engine.Message) (string, bool) {
	q, ok := m.(taq.Quote)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("quote|%s|%d|%.9g", q.Symbol, q.Day, q.SeqTime), true
}

func intervalKey(m engine.Message) (string, bool) {
	rm, ok := m.(retMsg)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("interval|%d", rm.S), true
}

func matrixKey(m engine.Message) (string, bool) {
	cm, ok := m.(corrMsg)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("matrix|%d", cm.S), true
}

// finish attaches the report to the result.
func (s *supervisor) finish(res *PipelineResult) {
	if s == nil {
		return
	}
	for _, st := range s.stages {
		s.report.Stages = append(s.report.Stages, st.Report())
	}
	res.Supervision = &s.report
	rep := s.report
	if rep.Snapshots > 0 || rep.Resumed || len(rep.Stages) > 0 {
		for _, st := range rep.Stages {
			if st.Quarantined > 0 {
				s.logf("core: stage %s: %d quarantined, %d skipped", st.Name, st.Quarantined, st.Skipped)
			}
		}
	}
}
