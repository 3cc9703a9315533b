package farm

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/chaos"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/metrics"
	"marketminer/internal/strategy"
	"marketminer/internal/sweep"
	"marketminer/internal/taq"
)

// mustFarmConfig is the one sweep configuration every farm test (and
// the crash-helper subprocess) shares: the fingerprint binds them all
// to the same journals and coordinators.
func mustFarmConfig() backtest.Config {
	uni, err := taq.NewUniverse(taq.DefaultSymbols()[:6])
	if err != nil {
		panic(err)
	}
	mc := market.DefaultConfig()
	mc.Universe = uni
	mc.Days = 2
	mc.Seed = 42
	return backtest.Config{Market: mc, Levels: strategy.BaseGrid()[:2], Workers: 2}
}

const farmBlockSize = 4

// farmWant computes the uninterrupted single-host reference result
// once per test binary.
var (
	wantOnce   sync.Once
	wantResult *backtest.Result
	wantErr    error
)

func farmWant(t *testing.T) *backtest.Result {
	t.Helper()
	wantOnce.Do(func() {
		wantResult, wantErr = backtest.Run(context.Background(), mustFarmConfig())
	})
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	return wantResult
}

// sameFarmResult asserts bit-identical output through the same JSON
// serialisation mmreport consumes — the farm acceptance criterion.
func sameFarmResult(t *testing.T, want, got *backtest.Result) {
	t.Helper()
	if got.TradeCount != want.TradeCount {
		t.Fatalf("merged farm result has %d trades, want %d", got.TradeCount, want.TradeCount)
	}
	if !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatal("merged farm return series differ from single-host run")
	}
	var wb, gb bytes.Buffer
	if err := backtest.SaveJSON(&wb, want); err != nil {
		t.Fatal(err)
	}
	if err := backtest.SaveJSON(&gb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatal("serialised farm result is not byte-identical to single-host run")
	}
}

// fakeWorker speaks raw farm frames so tests can violate the protocol
// in ways the real worker never would (going silent, delivering under
// a fenced lease).
type fakeWorker struct {
	t     *testing.T
	conn  net.Conn
	enc   *feed.Encoder
	dec   *feed.Decoder
	epoch uint64 // from the Grant; Results must carry it or be fenced
}

func joinFake(t *testing.T, addr, name, fingerprint string) *fakeWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := &fakeWorker{t: t, conn: conn, enc: feed.NewEncoder(conn, nil), dec: feed.NewDecoder(conn)}
	if err := fw.enc.WriteJoin(&feed.Join{Version: feed.ProtocolVersion, Name: name, Fingerprint: fingerprint}); err != nil {
		t.Fatal(err)
	}
	g, ok := fw.read().(*feed.Grant)
	if !ok {
		t.Fatalf("fake worker %s: handshake did not yield a Grant", name)
	}
	fw.epoch = g.Epoch
	return fw
}

func (f *fakeWorker) read() feed.Frame {
	f.t.Helper()
	f.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, err := f.dec.Read()
	if err != nil {
		f.t.Fatalf("fake worker read: %v", err)
	}
	return fr
}

// steal requests work and waits out interleaved heartbeats for the
// lease.
func (f *fakeWorker) steal() *feed.Lease {
	f.t.Helper()
	if err := f.enc.WriteSteal(&feed.Steal{}); err != nil {
		f.t.Fatal(err)
	}
	for {
		switch fr := f.read().(type) {
		case *feed.Heartbeat:
		case *feed.ResultAck:
		case *feed.Lease:
			return fr
		default:
			f.t.Fatalf("steal answered with %T, want Lease", fr)
		}
	}
}

func waitCounter(t *testing.T, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if metrics.Counter(name).Value() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter %s stuck at %d, want ≥ %d", name, metrics.Counter(name).Value(), want)
}

// TestFarmLeaseExpiryFencesZombies is the lease state machine test: a
// worker goes silent holding a group's units, the TTL (driven by an
// injected clock) expires it, the group is re-leased to a successor
// with a bumped generation, and the zombie's late delivery is rejected
// and counted — while the successor's delivery of the very same unit
// lands, and a redelivery after that counts as a duplicate.
func TestFarmLeaseExpiryFencesZombies(t *testing.T) {
	cfg := mustFarmConfig()
	cc := CoordinatorConfig{
		Config:      cfg,
		BlockSize:   farmBlockSize,
		JournalPath: filepath.Join(t.TempDir(), "farm.journal"),
		LeaseTTL:    time.Minute, // far beyond the test's real runtime
		SweepEvery:  5 * time.Millisecond,
		Logf:        t.Logf,
	}
	c, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	// The sweeper ticks in real time but judges expiry on this clock.
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	c.now = func() time.Time { return time.Unix(0, clock.Load()) }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		_, err := c.Serve(ctx, l)
		serveDone <- err
	}()

	expBase := metrics.Counter(MetricLeaseExpiries).Value()
	zomBase := metrics.Counter(MetricResultsZombie).Value()
	dupBase := metrics.Counter(MetricResultsDuplicate).Value()
	accBase := metrics.Counter(MetricResultsAccepted).Value()

	zombie := joinFake(t, l.Addr().String(), "zombie", c.fingerprint)
	defer zombie.conn.Close()
	leaseA := zombie.steal()
	if len(leaseA.Params) == 0 {
		t.Fatal("lease carries no units")
	}

	// The zombie dies holding N = len(Params) units — silently: the
	// connection stays open (a partition, not a crash), so only the
	// TTL can free the group.
	clock.Add(int64(cc.LeaseTTL + time.Second))
	waitCounter(t, MetricLeaseExpiries, expBase+1)

	successor := joinFake(t, l.Addr().String(), "successor", c.fingerprint)
	defer successor.conn.Close()
	leaseB := successor.steal()
	if leaseB.Day != leaseA.Day || leaseB.Block != leaseA.Block {
		t.Fatalf("successor got group (%d,%d), want the reclaimed (%d,%d)", leaseB.Day, leaseB.Block, leaseA.Day, leaseA.Block)
	}
	if leaseB.Gen <= leaseA.Gen {
		t.Fatalf("reassignment did not bump generation: %d → %d", leaseA.Gen, leaseB.Gen)
	}
	if leaseB.ID == leaseA.ID {
		t.Fatal("reassignment reused the lease id")
	}
	if !reflect.DeepEqual(leaseB.Params, leaseA.Params) {
		t.Fatalf("reassigned lease re-deals %v, want all of the zombie's %v", leaseB.Params, leaseA.Params)
	}

	lo, hi := c.plan.BlockRange(int(leaseA.Block))
	rows := make([][]float64, hi-lo)
	unit := uint64(c.plan.UnitID(sweep.Unit{Day: int(leaseA.Day), Block: int(leaseA.Block), Param: int(leaseA.Params[0])}))

	// The fenced generation's late result is rejected and counted...
	if err := zombie.enc.WriteResult(&feed.Result{Lease: leaseA.ID, Gen: leaseA.Gen, Epoch: zombie.epoch, Unit: unit, Rets: rows}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, MetricResultsZombie, zomBase+1)

	// ...and did not consume the unit: the current holder's lands.
	if err := successor.enc.WriteResult(&feed.Result{Lease: leaseB.ID, Gen: leaseB.Gen, Epoch: successor.epoch, Unit: unit, Rets: rows}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, MetricResultsAccepted, accBase+1)

	// Redelivering a journaled unit under a live lease is a duplicate,
	// not a zombie, and is dropped without growing the journal.
	if err := successor.enc.WriteResult(&feed.Result{Lease: leaseB.ID, Gen: leaseB.Gen, Epoch: successor.epoch, Unit: unit, Rets: rows}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, MetricResultsDuplicate, dupBase+1)
	if got := metrics.Counter(MetricResultsAccepted).Value(); got != accBase+1 {
		t.Fatalf("accepted counter moved to %d on duplicate, want %d", got, accBase+1)
	}

	cancel()
	if err := <-serveDone; err == nil {
		t.Fatal("cancelled Serve returned nil error")
	}
}

// TestFarmWorkerCrashHelper is not a test: it is the doomed worker
// subprocess for the e2e below, selected by environment variable. It
// SIGKILLs itself mid-group — no deferred closes, no goodbye frame —
// after delivering a few units.
func TestFarmWorkerCrashHelper(t *testing.T) {
	if os.Getenv("MM_FARM_WORKER_HELPER") != "1" {
		t.Skip("helper process only")
	}
	killAfter, err := strconv.Atoi(os.Getenv("MM_FARM_KILL_AFTER"))
	if err != nil {
		t.Fatal(err)
	}
	RunWorker(context.Background(), WorkerConfig{
		Config:    mustFarmConfig(),
		BlockSize: farmBlockSize,
		Name:      "doomed",
		Addr:      os.Getenv("MM_FARM_ADDR"),
		OnUnit: func(done int) {
			if done >= killAfter {
				syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
			}
		},
	})
	t.Fatal("helper survived its own SIGKILL")
}

// TestFarmSIGKILLChaosByteIdentical is the acceptance e2e: a worker is
// SIGKILLed mid-unit, the survivor finishes the sweep over a link with
// deterministic corruption and cuts injected, and the merged journal
// is byte-identical to an uninterrupted single-host backtest.Run.
func TestFarmSIGKILLChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := mustFarmConfig()
	want := farmWant(t)
	journal := filepath.Join(t.TempDir(), "farm.journal")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	var accepted atomic.Int64
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		BlockSize:   farmBlockSize,
		JournalPath: journal,
		LeaseTTL:    2 * time.Second,
		Logf:        t.Logf,
		Progress:    func(done, total int) { accepted.Store(int64(done)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	type serveOut struct {
		stats *CoordStats
		err   error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		st, err := c.Serve(context.Background(), l)
		serveCh <- serveOut{st, err}
	}()

	// Phase 1: the doomed worker delivers a few units, then SIGKILLs
	// itself mid-group, lease in hand.
	cmd := exec.Command(os.Args[0], "-test.run=TestFarmWorkerCrashHelper", "-test.v")
	cmd.Env = append(os.Environ(),
		"MM_FARM_WORKER_HELPER=1",
		"MM_FARM_ADDR="+addr,
		"MM_FARM_KILL_AFTER=4",
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("doomed worker exited cleanly; expected SIGKILL mid-sweep:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != -1 {
		t.Fatalf("doomed worker died of %v, want a signal:\n%s", err, out)
	}
	if accepted.Load() == 0 {
		t.Fatal("doomed worker was killed before delivering anything; raise MM_FARM_KILL_AFTER")
	}

	// Phase 2: the survivor finishes over a chaotic link — every few
	// KB a flipped byte (CRC-detected, connection dropped) or a hard
	// cut, each forcing a redial and a re-leased group.
	spec, err := chaos.ParseSpec("seed=11,corrupt=16384,cut=65536")
	if err != nil {
		t.Fatal(err)
	}
	ch := chaos.New(spec)
	baseDial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	workerDone := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerConfig{
			Config:         cfg,
			BlockSize:      farmBlockSize,
			Name:           "survivor",
			Dial:           ch.Dialer(baseDial),
			HeartbeatEvery: 100 * time.Millisecond,
			Backoff:        20 * time.Millisecond,
			MaxAttempts:    100,
			Logf:           t.Logf,
		})
		workerDone <- err
	}()

	var res serveOut
	select {
	case res = <-serveCh:
	case <-time.After(3 * time.Minute):
		t.Fatal("farm did not finish within 3 minutes")
	}
	if res.err != nil {
		t.Fatalf("coordinator: %v", res.err)
	}
	st := res.stats
	if st.Paused || st.UnitsRestored+st.UnitsExecuted != st.UnitsTotal {
		t.Fatalf("farm did not complete: %+v", st)
	}
	if st.WorkersJoined < 2 {
		t.Fatalf("expected ≥ 2 worker joins (doomed + survivor), got %d", st.WorkersJoined)
	}
	select {
	case <-workerDone:
	case <-time.After(time.Minute):
		t.Fatal("survivor worker did not exit after End")
	}

	got, _, err := sweep.MergeFiles([]string{journal})
	if err != nil {
		t.Fatal(err)
	}
	sameFarmResult(t, want, got)
}

// TestFarmLimitResumeExecutesOnlyLostUnits pins the checkpoint
// contract: a Limit-paused farm run journals exactly Limit units, a
// second run with the same journal restores them and executes only the
// remainder, and a third run finds nothing left to do.
func TestFarmLimitResumeExecutesOnlyLostUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := mustFarmConfig()
	want := farmWant(t)
	journal := filepath.Join(t.TempDir(), "farm.journal")
	const limit = 5

	run := func(limit int) *CoordStats {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(CoordinatorConfig{
			Config:      cfg,
			BlockSize:   farmBlockSize,
			JournalPath: journal,
			LeaseTTL:    5 * time.Second,
			Limit:       limit,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithCancel(context.Background())
		defer wcancel()
		go RunWorker(wctx, WorkerConfig{
			Config:         cfg,
			BlockSize:      farmBlockSize,
			Name:           "resumer",
			Addr:           l.Addr().String(),
			HeartbeatEvery: 100 * time.Millisecond,
			Backoff:        20 * time.Millisecond,
		})
		st, err := c.Serve(context.Background(), l)
		if err != nil {
			t.Fatalf("serve (limit %d): %v", limit, err)
		}
		return st
	}

	st1 := run(limit)
	if !st1.Paused || st1.UnitsExecuted != limit {
		t.Fatalf("limited run: paused=%v executed=%d, want paused with exactly %d", st1.Paused, st1.UnitsExecuted, limit)
	}
	st2 := run(0)
	if st2.UnitsRestored != limit {
		t.Fatalf("resume restored %d units, want the %d journaled by the paused run", st2.UnitsRestored, limit)
	}
	if st2.Paused || st2.UnitsExecuted != st2.UnitsTotal-limit {
		t.Fatalf("resume executed %d units (paused=%v), want exactly the %d lost ones", st2.UnitsExecuted, st2.Paused, st2.UnitsTotal-limit)
	}
	st3 := run(0)
	if st3.UnitsExecuted != 0 || st3.UnitsRestored != st3.UnitsTotal {
		t.Fatalf("re-serving a complete journal executed %d units, want 0: %+v", st3.UnitsExecuted, st3)
	}
	// A finished farm leaves its journal and manifest, nothing else.
	entries, err := os.ReadDir(filepath.Dir(journal))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"farm.journal", "farm.journal.coord"}) {
		t.Fatalf("finished farm directory holds %v, want the journal and its manifest", names)
	}

	got, _, err := sweep.MergeFiles([]string{journal})
	if err != nil {
		t.Fatal(err)
	}
	sameFarmResult(t, want, got)
}

// TestFarmFingerprintMismatchRefused: a worker started with different
// sweep flags must never contribute a unit — the coordinator answers
// its Join with an explicit Refuse, and the worker exits loudly on the
// first attempt instead of burning its redial budget on a
// misconfiguration that can never be accepted.
func TestFarmFingerprintMismatchRefused(t *testing.T) {
	cfg := mustFarmConfig()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		BlockSize:   farmBlockSize,
		JournalPath: filepath.Join(t.TempDir(), "farm.journal"),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		_, err := c.Serve(ctx, l)
		serveDone <- err
	}()

	badCfg := cfg
	badCfg.Market.Seed = 999 // different sweep, different fingerprint
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Config:      badCfg,
		BlockSize:   farmBlockSize,
		Name:        "imposter",
		Addr:        l.Addr().String(),
		Backoff:     5 * time.Millisecond,
		MaxAttempts: 3,
	})
	var refused *RefusedError
	if !errors.As(err, &refused) {
		t.Fatalf("mismatched worker returned %v, want RefusedError", err)
	}
	if refused.Code != feed.RefuseFingerprint {
		t.Fatalf("refusal code %d, want RefuseFingerprint (%d)", refused.Code, feed.RefuseFingerprint)
	}
	if !strings.Contains(refused.Reason, "fingerprint") {
		t.Fatalf("refusal reason %q does not name the fingerprint", refused.Reason)
	}
	if stats.Redials != 0 {
		t.Fatalf("refused worker redialed %d times; an explicit refusal must be fatal on the first attempt", stats.Redials)
	}

	cancel()
	<-serveDone
}

// TestFarmUnreachableCoordinatorRetriesThenFails pins the other half of
// the refused/unreachable split: a coordinator that cannot be reached
// at all is retried exactly MaxAttempts times under backoff before
// the worker gives up.
func TestFarmUnreachableCoordinatorRetriesThenFails(t *testing.T) {
	// Bind-then-close gives an address that refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	stats, err := RunWorker(context.Background(), WorkerConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		Name:        "stranded",
		Addr:        addr,
		Backoff:     time.Millisecond,
		MaxAttempts: 4,
	})
	if err == nil || !strings.Contains(err.Error(), "failed join attempts") {
		t.Fatalf("stranded worker returned %v, want join-failure error", err)
	}
	var refused *RefusedError
	if errors.As(err, &refused) {
		t.Fatal("unreachable coordinator surfaced as a refusal; must stay a retryable failure")
	}
	if stats.Redials != 3 {
		t.Fatalf("stranded worker redialed %d times, want MaxAttempts-1 = 3", stats.Redials)
	}
}
