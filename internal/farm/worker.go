package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/feed"
	"marketminer/internal/supervise"
	"marketminer/internal/sweep"
)

// WorkerConfig configures one farm worker process.
type WorkerConfig struct {
	// Config must match the coordinator's sweep configuration exactly;
	// the Join handshake is refused otherwise.
	Config backtest.Config
	// BlockSize must match the coordinator's (fingerprinted).
	BlockSize int
	// Name identifies this worker in coordinator logs.
	Name string
	// Addr is the coordinator's address; ignored when Dial is set.
	Addr string
	// Dial, when non-nil, replaces feed.Dialer(Addr). Pass
	// feed.Dialer(primary, standby, ...) to rotate through candidate
	// coordinators on each redial, so a worker finds whichever address
	// is serving after a takeover; chaos.Chaos.Dialer wraps it to
	// fault-inject the link.
	Dial feed.DialFunc
	// EngineWorkers sets intra-group matrix-engine parallelism; ≤ 0
	// means Config.ResolvedWorkers(). Any value produces identical
	// bytes (the engine is worker-count-invariant).
	EngineWorkers int
	// HeartbeatEvery is the lease-renewal cadence; ≤ 0 means 1s. Keep
	// it well under the coordinator's lease TTL.
	HeartbeatEvery time.Duration
	// IdleTimeout bounds silence from the coordinator before this
	// worker abandons the connection and redials; ≤ 0 means 30s. The
	// coordinator heartbeats parked workers every TTL/4, so a healthy
	// link never trips this.
	IdleTimeout time.Duration
	// Backoff is the first redial delay (≤ 0 means 100ms); consecutive
	// failures double it up to 32×Backoff, each delay jittered in
	// [d/2, d] (supervise.Redial) so a farm of workers orphaned by the
	// same coordinator death does not redial in lockstep.
	Backoff time.Duration
	// MaxAttempts gives up after that many consecutive sessions that
	// never reached a Grant; ≤ 0 means 10. A Grant resets the count —
	// only a coordinator that cannot be *reached* is retried to this
	// cap — while an explicit Refuse (version or fingerprint mismatch)
	// or a compute error is fatal on the first attempt: retrying either
	// can never succeed.
	MaxAttempts int
	// MaxUnacked caps the completed-but-unacknowledged Results buffered
	// for redelivery across a coordinator restart; ≤ 0 means 1024.
	// Overflow evicts arbitrarily — an evicted unit is merely
	// recomputed, never lost.
	MaxUnacked int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnUnit, when non-nil, is called after each computed unit with
	// the running per-worker count (test crash hooks, progress bars).
	OnUnit func(done int)
}

// WorkerStats reports what one RunWorker invocation did.
type WorkerStats struct {
	// Units and Groups count work computed and delivered (accepted or
	// not — a fenced zombie still counts here).
	Units, Groups int
	// Sessions counts successful Join handshakes; Redials counts
	// connection attempts that had to be retried.
	Sessions, Redials int
	// Rejoins counts sessions resumed from a prior one (coordinator
	// restart or takeover); Recovered counts buffered Results
	// redelivered instead of recomputed after such a resume.
	Rejoins, Recovered int
	// Warm summarises the robust kernel's warm-start behaviour.
	Warm sweep.RobustSummary
}

// RefusedError is an explicit coordinator rejection of the Join
// handshake — a protocol-version or sweep-fingerprint mismatch. It is
// fatal: the worker exits loudly instead of burning its redial budget
// on a configuration that can never be accepted.
type RefusedError struct {
	Code   uint16 // feed.RefuseVersion or feed.RefuseFingerprint
	Reason string
}

func (e *RefusedError) Error() string {
	kind := "join refused"
	switch e.Code {
	case feed.RefuseVersion:
		kind = "protocol version refused"
	case feed.RefuseFingerprint:
		kind = "sweep fingerprint refused"
	}
	return fmt.Sprintf("farm: %s by coordinator: %s", kind, e.Reason)
}

// RunWorker joins the coordinator, steals and computes groups through
// the same sweep.GroupRunner the single-host orchestrator uses, and
// streams each unit's Result back, until the coordinator sends End.
// It redials through supervise.Retry across coordinator restarts,
// standby takeovers, chaos cuts and idle timeouts, resuming its prior
// session so in-flight groups and unacknowledged Results survive the
// handoff; it returns an error only when no coordinator grants a Join
// for MaxAttempts straight attempts, the coordinator explicitly
// refuses the Join, a group fails to compute, the configuration is
// rejected locally, or ctx is cancelled.
func RunWorker(ctx context.Context, wc WorkerConfig) (*WorkerStats, error) {
	if wc.HeartbeatEvery <= 0 {
		wc.HeartbeatEvery = time.Second
	}
	if wc.IdleTimeout <= 0 {
		wc.IdleTimeout = 30 * time.Second
	}
	if wc.Backoff <= 0 {
		wc.Backoff = 100 * time.Millisecond
	}
	if wc.MaxAttempts <= 0 {
		wc.MaxAttempts = 10
	}
	if wc.MaxUnacked <= 0 {
		wc.MaxUnacked = 1024
	}
	if wc.Dial == nil {
		if wc.Addr == "" {
			return nil, fmt.Errorf("farm: WorkerConfig.Addr or Dial is required")
		}
		wc.Dial = feed.Dialer(wc.Addr)
	}
	runner, err := sweep.NewGroupRunner(wc.Config, wc.BlockSize)
	if err != nil {
		return nil, err
	}

	w := &worker{
		wc:      wc,
		runner:  runner,
		held:    map[int]uint64{},
		unacked: map[int]*feed.Result{},
	}
	attempts := 0
	err = supervise.Retry(ctx, supervise.Redial(wc.Backoff, wc.MaxAttempts), func(ctx context.Context, progress func()) error {
		if attempts++; attempts > 1 {
			w.stats.Redials++
		}
		err := w.session(ctx, progress)
		if err != nil && ctx.Err() == nil {
			w.logf("farm worker: session ended: %v", err)
		}
		return err
	})
	var ce *supervise.CircuitError
	if errors.As(err, &ce) {
		err = fmt.Errorf("farm: giving up after %d failed join attempts: %w", ce.Failures, ce.Last)
	}
	if err == nil {
		w.stats.Warm = runner.WarmStats()
	}
	return &w.stats, err
}

type worker struct {
	wc     WorkerConfig
	runner *sweep.GroupRunner
	stats  WorkerStats

	// Resume state, carried across sessions. held maps gid → the lease
	// id this worker most recently received for it (reported in the
	// rejoin Join so the new coordinator re-confirms instead of
	// reassigning); unacked maps unit id → the completed Result whose
	// durability the coordinator has not yet acknowledged (redelivered
	// under a re-confirmed lease instead of recomputed).
	sessionID uint64
	epoch     uint64
	held      map[int]uint64
	unacked   map[int]*feed.Result
}

func (w *worker) logf(format string, args ...any) {
	if w.wc.Logf != nil {
		w.wc.Logf(format, args...)
	}
}

// heldLeaseIDs snapshots the lease ids to claim in a rejoin Join,
// bounded by the wire-format cap (an unreported lease is merely
// reassigned by the coordinator, never lost).
func (w *worker) heldLeaseIDs() []uint64 {
	const wireCap = 1024 // feed's maxHeldLeases
	ids := make([]uint64, 0, len(w.held))
	for _, id := range w.held {
		ids = append(ids, id)
		if len(ids) == wireCap {
			break
		}
	}
	return ids
}

// ack clears one acknowledged unit and releases its group's held lease
// once nothing of that group remains buffered.
func (w *worker) ack(unit int) {
	if _, ok := w.unacked[unit]; !ok {
		return
	}
	delete(w.unacked, unit)
	plan := w.runner.Plan()
	if unit >= plan.NumUnits() {
		return
	}
	u := plan.UnitFromID(unit)
	gid := plan.GroupID(u.Day, u.Block)
	for id := range w.unacked {
		ou := plan.UnitFromID(id)
		if plan.GroupID(ou.Day, ou.Block) == gid {
			return
		}
	}
	delete(w.held, gid)
}

// buffer records a delivered Result for potential redelivery, evicting
// arbitrarily at the cap (the evicted unit is recomputed, not lost).
func (w *worker) buffer(r *feed.Result) {
	if len(w.unacked) >= w.wc.MaxUnacked {
		for id := range w.unacked {
			delete(w.unacked, id)
			break
		}
	}
	w.unacked[int(r.Unit)] = r
}

// session runs one connection: dial, Join → Grant (or Refuse), then
// steal/compute/result until End (nil) or failure. The Grant reports
// progress.
func (w *worker) session(ctx context.Context, progress func()) error {
	conn, err := w.wc.Dial(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()

	// Writes come from this goroutine (Join, Steal, Results) and the
	// heartbeat goroutine; writeMu serializes them on the shared
	// encoder.
	var writeMu sync.Mutex
	enc := feed.NewEncoder(conn, nil)
	send := func(f func(*feed.Encoder) error) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return f(enc)
	}
	dec := feed.NewDecoder(conn)
	read := func() (feed.Frame, error) {
		conn.SetReadDeadline(time.Now().Add(w.wc.IdleTimeout))
		return dec.Read()
	}

	rejoin := w.sessionID != 0
	join := &feed.Join{
		Version:     feed.ProtocolVersion,
		Name:        w.wc.Name,
		Fingerprint: w.runner.Fingerprint(),
	}
	if rejoin {
		join.PriorSession = w.sessionID
		join.PriorEpoch = w.epoch
		join.HeldLeases = w.heldLeaseIDs()
	}
	if err := send(func(e *feed.Encoder) error { return e.WriteJoin(join) }); err != nil {
		return err
	}
	f, err := read()
	if err != nil {
		return err
	}
	var session uint64
	switch f := f.(type) {
	case *feed.Grant:
		session = f.Session
		w.sessionID, w.epoch = f.Session, f.Epoch
		// Old lease ids died with the old coordinator; re-confirmed
		// groups arrive as fresh Lease frames and repopulate held.
		w.held = map[int]uint64{}
		w.stats.Sessions++
		progress()
		if rejoin {
			w.stats.Rejoins++
			w.logf("farm worker: rejoined as session %d under epoch %d (was session %d; %d unit(s) buffered for redelivery)",
				f.Session, f.Epoch, join.PriorSession, len(w.unacked))
		} else {
			w.logf("farm worker: joined as session %d under epoch %d (%d/%d units already done)",
				f.Session, f.Epoch, f.UnitsDone, f.UnitsTotal)
		}
	case *feed.Refuse:
		return supervise.Permanent(&RefusedError{Code: f.Code, Reason: f.Reason})
	case *feed.End:
		return nil
	default:
		return fmt.Errorf("farm: handshake got %T, want Grant", f)
	}

	// Heartbeats renew leases while this goroutine is deep in a
	// compute.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(w.wc.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				send(func(e *feed.Encoder) error { return e.WriteHeartbeat(&feed.Heartbeat{Seq: session}) })
			}
		}
	}()

	for {
		if err := send(func(e *feed.Encoder) error { return e.WriteSteal(&feed.Steal{Done: uint64(w.stats.Units)}) }); err != nil {
			return err
		}
		// Read until work arrives; coordinator heartbeats punctuate
		// long parks and reset the idle timer, result acks retire the
		// redelivery buffer.
	wait:
		for {
			f, err := read()
			if err != nil {
				return err
			}
			switch f := f.(type) {
			case *feed.Heartbeat:
				continue
			case *feed.ResultAck:
				w.ack(int(f.Unit))
			case *feed.End:
				return nil
			case *feed.Lease:
				if err := w.compute(ctx, f, send); err != nil {
					return err
				}
				break wait
			default:
				return fmt.Errorf("farm: unexpected %T while awaiting lease", f)
			}
		}
	}
}

// compute executes one leased group and streams each unit's Result
// back, stamped with the lease's fencing generation and the session's
// coordinator epoch. Units the lease asks for that are already in the
// redelivery buffer (computed under a previous session, ack lost with
// the old coordinator) are resent as-is with the recovered flag;
// buffered units the lease does *not* ask for are already journaled
// and are dropped.
func (w *worker) compute(ctx context.Context, l *feed.Lease, send func(func(*feed.Encoder) error) error) error {
	plan := w.runner.Plan()
	day, block := int(l.Day), int(l.Block)
	if day >= plan.Days || block >= plan.NumBlocks() {
		return supervise.Permanent(fmt.Errorf("farm: lease for group (%d,%d) outside plan", day, block))
	}
	gid := plan.GroupID(day, block)
	w.held[gid] = l.ID

	asked := make(map[int]bool, len(l.Params))
	units := make([]sweep.Unit, 0, len(l.Params))
	recovered := 0
	for _, p := range l.Params {
		if int(p) >= plan.NumParams() {
			return supervise.Permanent(fmt.Errorf("farm: lease param %d outside plan", p))
		}
		u := sweep.Unit{Day: day, Block: block, Param: int(p)}
		id := plan.UnitID(u)
		asked[id] = true
		if r, ok := w.unacked[id]; ok {
			// Re-stamp under the new lease: the value is a pure
			// function of (day, block, param), so the bytes computed
			// under the old session are exactly what this lease wants.
			r.Lease, r.Gen, r.Epoch = l.ID, l.Gen, w.epoch
			r.Flags |= feed.ResultRecovered
			if err := send(func(e *feed.Encoder) error { return e.WriteResult(r) }); err != nil {
				return err
			}
			recovered++
			continue
		}
		units = append(units, u)
	}
	for id := range w.unacked {
		u := plan.UnitFromID(id)
		if plan.GroupID(u.Day, u.Block) == gid && !asked[id] {
			delete(w.unacked, id) // journaled before the old coordinator died
		}
	}
	if recovered > 0 {
		w.stats.Recovered += recovered
		w.logf("farm worker: redelivered %d buffered unit(s) for group (%d,%d) instead of recomputing", recovered, day, block)
	}
	if len(units) == 0 {
		w.stats.Groups++
		return nil
	}

	engineWorkers := w.wc.EngineWorkers
	if engineWorkers <= 0 {
		engineWorkers = w.runner.Config().ResolvedWorkers()
	}
	// A send failure is the link's fault and worth a redial; any other
	// RunGroup error recurs on every attempt.
	var wireErr error
	err := w.runner.RunGroup(ctx, gid, units, engineWorkers, func(e sweep.Entry, trades int64) error {
		r := &feed.Result{Lease: l.ID, Gen: l.Gen, Epoch: w.epoch, Unit: uint64(e.U), Rets: e.Rets}
		if wireErr = send(func(enc *feed.Encoder) error { return enc.WriteResult(r) }); wireErr != nil {
			return wireErr
		}
		w.buffer(r)
		w.stats.Units++
		if w.wc.OnUnit != nil {
			w.wc.OnUnit(w.stats.Units)
		}
		return nil
	})
	switch {
	case wireErr != nil:
		return wireErr
	case err != nil:
		return supervise.Permanent(err)
	}
	w.stats.Groups++
	return nil
}
