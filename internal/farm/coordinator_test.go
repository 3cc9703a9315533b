package farm

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
	"marketminer/internal/sweep"
)

// pinWorker is a scripted worker for the coordinator pin. A reader
// goroutine queues every frame the coordinator sends; next skips the
// sweeper's heartbeats (their count follows wall-clock ticks) and
// writes every other frame, all fields, into the digest.
type pinWorker struct {
	t      *testing.T
	name   string
	conn   net.Conn
	enc    *feed.Encoder
	frames chan feed.Frame
	digest hash.Hash
	plan   *sweep.Plan
	epoch  uint64
}

func dialPin(t *testing.T, addr, name, fingerprint string, prior uint64, held []uint64, digest hash.Hash, plan *sweep.Plan) (*pinWorker, *feed.Grant) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &pinWorker{t: t, name: name, conn: conn, enc: feed.NewEncoder(conn, nil),
		frames: make(chan feed.Frame, 64), digest: digest, plan: plan}
	go func() {
		defer close(w.frames)
		dec := feed.NewDecoder(conn)
		for {
			f, err := dec.Read()
			if err != nil {
				return
			}
			w.frames <- f
		}
	}()
	join := &feed.Join{Version: feed.ProtocolVersion, Name: name, Fingerprint: fingerprint, PriorSession: prior, HeldLeases: held}
	if prior != 0 {
		join.PriorEpoch = 1
	}
	if err := w.enc.WriteJoin(join); err != nil {
		t.Fatal(err)
	}
	g := pinNext[*feed.Grant](w)
	w.epoch = g.Epoch
	return w, g
}

// next returns the next non-heartbeat frame, or nil once the
// connection is closed.
func (w *pinWorker) next() feed.Frame {
	w.t.Helper()
	for {
		select {
		case f, ok := <-w.frames:
			if !ok {
				return nil
			}
			if _, hb := f.(*feed.Heartbeat); hb {
				continue
			}
			fmt.Fprintf(w.digest, "%s %T %+v\n", w.name, f, f)
			return f
		case <-time.After(10 * time.Second):
			w.t.Fatalf("pin worker %s: no frame within 10 s", w.name)
		}
	}
}

func pinNext[T feed.Frame](w *pinWorker) T {
	w.t.Helper()
	f := w.next()
	got, ok := f.(T)
	if !ok {
		w.t.Fatalf("pin worker %s received %T, want %T", w.name, f, got)
	}
	return got
}

// drain requires the connection to end with no further frame.
func (w *pinWorker) drain() {
	w.t.Helper()
	if f := w.next(); f != nil {
		w.t.Fatalf("pin worker %s received %T after its last expected frame", w.name, f)
	}
}

func (w *pinWorker) steal() *feed.Lease {
	w.t.Helper()
	if err := w.enc.WriteSteal(&feed.Steal{}); err != nil {
		w.t.Fatal(err)
	}
	return pinNext[*feed.Lease](w)
}

// result sends param p of l's group under l's lease and generation.
// Each row holds the unit id and the row index, so the journal bytes
// say which unit was recorded where.
func (w *pinWorker) result(l *feed.Lease, p uint16) {
	w.t.Helper()
	unit := w.plan.UnitID(sweep.Unit{Day: int(l.Day), Block: int(l.Block), Param: int(p)})
	lo, hi := w.plan.BlockRange(int(l.Block))
	rows := make([][]float64, hi-lo)
	for i := range rows {
		rows[i] = []float64{float64(unit), float64(i)}
	}
	if err := w.enc.WriteResult(&feed.Result{Lease: l.ID, Gen: l.Gen, Epoch: w.epoch, Unit: uint64(unit), Rets: rows}); err != nil {
		w.t.Fatal(err)
	}
}

// TestCoordinatorScriptMatchesParentDigest drives one clock-injected
// script through the real Serve with fake workers and pins a digest of
// everything the coordinator decided: every non-heartbeat frame each
// worker received, the manifest bytes after each step, the journal
// bytes and the farm counter deltas. The script covers two joins and
// steals with results, a duplicate, a parked worker woken by a
// disconnect's reclaim, a lease expiry on an advanced clock and the
// zombie result that follows it, a crash and a restart on the same
// journal whose rejoin re-confirms one lease and reclaims the other,
// and a Limit pause. The digest was taken from the coordinator before
// its decisions moved into a pure core; it must not move.
func TestCoordinatorScriptMatchesParentDigest(t *testing.T) {
	cfg := mustFarmConfig()
	cfg.Types = []corr.Type{corr.Pearson} // 2 params × 2 days × 2 blocks of 8 pairs
	journal := filepath.Join(t.TempDir(), "farm.journal")
	path := coordManifestPath(journal)
	var clock atomic.Int64
	clock.Store(time.Date(2009, 5, 25, 9, 30, 0, 0, time.UTC).UnixNano())

	counters := []string{MetricWorkersJoined, MetricLeasesGranted, MetricLeaseExpiries, MetricLeaseReclaims,
		MetricResultsAccepted, MetricResultsZombie, MetricResultsDuplicate, MetricResultsLate,
		MetricCoordRestarts, MetricCoordTakeovers, MetricCoordEpochFences, MetricCoordRejoins, MetricCoordRecovered}
	base := map[string]int64{}
	for _, n := range counters {
		base[n] = metrics.Counter(n).Value()
	}

	digest := fnv.New64a()
	manifestStep := func(step string) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(digest, "manifest after %s: %s", step, raw)
	}
	type served struct {
		st  *CoordStats
		err error
	}
	serve := func(limit int) (*Coordinator, string, context.CancelFunc, chan served) {
		c, err := NewCoordinator(CoordinatorConfig{
			Config:      cfg,
			BlockSize:   8,
			JournalPath: journal,
			LeaseTTL:    time.Minute,
			SweepEvery:  5 * time.Millisecond,
			Limit:       limit,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.now = func() time.Time { return time.Unix(0, clock.Load()) }
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan served, 1)
		go func() {
			st, err := c.Serve(ctx, l)
			done <- served{st, err}
		}()
		return c, l.Addr().String(), cancel, done
	}
	wait := func(done chan served) served {
		t.Helper()
		select {
		case s := <-done:
			return s
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return")
			return served{}
		}
	}

	// Incarnation 1.
	c1, addr, cancel1, done1 := serve(0)
	defer cancel1()
	plan := c1.plan
	if plan.NumGroups() != 4 || plan.NumParams() != 2 {
		t.Fatalf("pin plan has %d groups of %d params, want 4 of 2", plan.NumGroups(), plan.NumParams())
	}
	a, ga := dialPin(t, addr, "A", c1.fingerprint, 0, nil, digest, plan)
	b, _ := dialPin(t, addr, "B", c1.fingerprint, 0, nil, digest, plan)
	manifestStep("joins")

	la0, lb1 := a.steal(), b.steal()
	manifestStep("steals")
	a.result(la0, la0.Params[0])
	pinNext[*feed.ResultAck](a)
	for _, p := range lb1.Params {
		b.result(lb1, p)
		pinNext[*feed.ResultAck](b)
	}
	manifestStep("results")

	a.result(la0, la0.Params[0]) // duplicate: acked again, not journaled
	pinNext[*feed.ResultAck](a)
	manifestStep("duplicate")

	lb2 := b.steal()
	c, gc := dialPin(t, addr, "C", c1.fingerprint, 0, nil, digest, plan)
	lc3 := c.steal()
	if err := a.enc.WriteSteal(&feed.Steal{}); err != nil { // nothing pending: A parks
		t.Fatal(err)
	}
	b.conn.Close() // B's group is reclaimed and dealt to the parked A
	la2 := pinNext[*feed.Lease](a)
	if la2.Day != lb2.Day || la2.Block != lb2.Block {
		t.Fatalf("parked worker was woken with group (%d,%d), want the reclaimed (%d,%d)", la2.Day, la2.Block, lb2.Day, lb2.Block)
	}
	b.drain()
	manifestStep("disconnect")

	// Results renew A's leases at +40 s; C's lease, untouched since
	// +0 s, expires at +70 s.
	clock.Add(int64(40 * time.Second))
	a.result(la0, la0.Params[1])
	pinNext[*feed.ResultAck](a)
	a.result(la2, la2.Params[0])
	pinNext[*feed.ResultAck](a)
	clock.Add(int64(30 * time.Second))
	waitCounter(t, MetricLeaseExpiries, base[MetricLeaseExpiries]+1)
	manifestStep("expiry")

	c.result(lc3, lc3.Params[0]) // C's expired lease: a zombie
	waitCounter(t, MetricResultsZombie, base[MetricResultsZombie]+1)
	la3 := a.steal()
	if la3.Day != lc3.Day || la3.Block != lc3.Block || la3.Gen <= lc3.Gen {
		t.Fatalf("expired group re-dealt as %+v, want (%d,%d) above gen %d", la3, lc3.Day, lc3.Block, lc3.Gen)
	}
	manifestStep("zombie")

	// Crash: the disk as it stands is all a restart sees.
	jraw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	mraw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cancel1()
	s1 := wait(done1)
	a.drain()
	c.drain()
	fmt.Fprintf(digest, "first serve: %+v %v\n", *s1.st, s1.err)
	if err := os.WriteFile(journal, jraw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mraw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2, pausing after two accepted results. A rejoins
	// holding only its lease on la2's group: that one is re-confirmed,
	// la3's is reclaimed and dealt to C.
	_, addr, cancel2, done2 := serve(2)
	defer cancel2()
	a2, _ := dialPin(t, addr, "A", c1.fingerprint, ga.Session, []uint64{la2.ID}, digest, plan)
	la2r := pinNext[*feed.Lease](a2)
	c2, _ := dialPin(t, addr, "C", c1.fingerprint, gc.Session, []uint64{lc3.ID}, digest, plan)
	manifestStep("rejoins")
	lc3r := c2.steal()
	manifestStep("restart steal")

	a2.result(la2r, la2r.Params[0])
	pinNext[*feed.ResultAck](a2)
	c2.result(lc3r, lc3r.Params[0])
	pinNext[*feed.ResultAck](c2)
	pinNext[*feed.End](c2)
	pinNext[*feed.End](a2)
	a2.conn.Close()
	c2.conn.Close()
	s2 := wait(done2)
	if s2.err != nil || !s2.st.Paused {
		t.Fatalf("limited restart returned (%+v, %v), want a clean pause", s2.st, s2.err)
	}
	a2.drain()
	c2.drain()
	fmt.Fprintf(digest, "second serve: %+v\n", *s2.st)
	manifestStep("pause")

	jraw, err = os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(digest, "journal: %x\n", jraw)
	for _, n := range counters {
		fmt.Fprintf(digest, "%s %+d\n", n, metrics.Counter(n).Value()-base[n])
	}

	const want = uint64(0xa3c1864ab012ba10)
	if got := digest.Sum64(); got != want {
		t.Fatalf("coordinator script digest %016x, want %016x", got, want)
	}
}
