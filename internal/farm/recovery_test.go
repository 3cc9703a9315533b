package farm

import (
	"bytes"
	"context"
	"errors"
	"io"
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

	"marketminer/internal/chaos"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
	"marketminer/internal/strategy"
	"marketminer/internal/supervise"
	"marketminer/internal/sweep"
)

// waitAccepting blocks until addr accepts TCP connections.
func waitAccepting(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("nothing accepting on %s", addr)
}

// rebind re-listens on a specific address a just-killed process held,
// retrying briefly while the kernel releases it.
func rebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitManifest polls until the coordinator manifest exists and returns
// it.
func waitManifest(t *testing.T, path, fingerprint string) *coordManifest {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m, err := readCoordManifest(path, fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			return m
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("coordinator manifest %s never appeared", path)
	return nil
}

// TestFarmCoordCrashHelper is not a test: it is the doomed coordinator
// subprocess for the recovery e2es, selected by environment variable.
// It SIGKILLs itself — no final manifest, no journal close, no goodbye
// frames — after accepting a few results.
func TestFarmCoordCrashHelper(t *testing.T) {
	if os.Getenv("MM_FARM_COORD_HELPER") != "1" {
		t.Skip("helper process only")
	}
	killAfter, err := strconv.Atoi(os.Getenv("MM_FARM_COORD_KILL_AFTER"))
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := time.ParseDuration(os.Getenv("MM_FARM_COORD_TTL"))
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		JournalPath: os.Getenv("MM_FARM_COORD_JOURNAL"),
		LeaseTTL:    ttl,
		Logf:        t.Logf,
		Progress: func(done, total int) {
			if accepted.Add(1) >= int64(killAfter) {
				syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", os.Getenv("MM_FARM_COORD_LISTEN"))
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(context.Background(), l)
	t.Fatal("helper survived its own SIGKILL")
}

// spawnCoordHelper starts the doomed coordinator subprocess and waits
// until it is accepting workers.
func spawnCoordHelper(t *testing.T, addr, journal string, killAfter int, ttl time.Duration) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestFarmCoordCrashHelper", "-test.v")
	cmd.Env = append(os.Environ(),
		"MM_FARM_COORD_HELPER=1",
		"MM_FARM_COORD_LISTEN="+addr,
		"MM_FARM_COORD_JOURNAL="+journal,
		"MM_FARM_COORD_KILL_AFTER="+strconv.Itoa(killAfter),
		"MM_FARM_COORD_TTL="+ttl.String(),
	)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitAccepting(t, addr)
	return cmd, &out
}

// expectSIGKILLed asserts the subprocess died of a signal, not a clean
// exit or an internal error.
func expectSIGKILLed(t *testing.T, what string, cmd *exec.Cmd, out *bytes.Buffer) {
	t.Helper()
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("%s exited cleanly; expected SIGKILL mid-sweep:\n%s", what, out.Bytes())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != -1 {
		t.Fatalf("%s died of %v, want a signal:\n%s", what, err, out.Bytes())
	}
}

// intactRecords counts the journal's intact unit records, read through
// the sweep journal reader (the header does not count).
func intactRecords(t *testing.T, journal string) int {
	t.Helper()
	r, err := sweep.OpenJournalReader(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestFarmCoordinatorSIGKILLRestartByteIdentical is the recovery
// acceptance e2e: the coordinator is SIGKILLed mid-sweep — with a
// worker that was itself SIGKILLed earlier and a survivor on a
// chaos-corrupted link — then restarted cold on the same journal. The
// restart must claim a higher epoch, restore every journaled unit,
// re-confirm the survivor's session, and finish with output
// byte-identical to an uninterrupted single-host sweep.Backtest.
func TestFarmCoordinatorSIGKILLRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := mustFarmConfig()
	want := farmWant(t)
	journal := filepath.Join(t.TempDir(), "farm.journal")
	addr := deadAddr(t)

	restartsBase := metrics.Counter(MetricCoordRestarts).Value()
	rejoinsBase := metrics.Counter(MetricCoordRejoins).Value()

	coord, coordOut := spawnCoordHelper(t, addr, journal, 10, 2*time.Second)

	// Phase 1: a worker is SIGKILLed mid-group while the first
	// coordinator incarnation is serving.
	doomed := exec.Command(os.Args[0], "-test.run=TestFarmWorkerCrashHelper", "-test.v")
	doomed.Env = append(os.Environ(),
		"MM_FARM_WORKER_HELPER=1",
		"MM_FARM_ADDR="+addr,
		"MM_FARM_KILL_AFTER=3",
	)
	dout, derr := doomed.CombinedOutput()
	if derr == nil {
		t.Fatalf("doomed worker exited cleanly; expected SIGKILL mid-sweep:\n%s", dout)
	}
	if ee, ok := derr.(*exec.ExitError); !ok || ee.ExitCode() != -1 {
		t.Fatalf("doomed worker died of %v, want a signal:\n%s", derr, dout)
	}

	// Phase 2: a survivor on a chaotic link computes across BOTH
	// coordinator incarnations, resuming its session over the restart.
	spec, err := chaos.ParseSpec("seed=5,corrupt=32768,cut=131072")
	if err != nil {
		t.Fatal(err)
	}
	ch := chaos.New(spec)
	baseDial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	type workerOut struct {
		stats *WorkerStats
		err   error
	}
	survivorCh := make(chan workerOut, 1)
	go func() {
		st, err := RunWorker(context.Background(), WorkerConfig{
			Config:         cfg,
			BlockSize:      farmBlockSize,
			Name:           "survivor",
			Dial:           ch.Dialer(baseDial),
			HeartbeatEvery: 100 * time.Millisecond,
			Backoff:        20 * time.Millisecond,
			MaxAttempts:    1000,
			Logf:           t.Logf,
		})
		survivorCh <- workerOut{st, err}
	}()

	// Phase 3: the coordinator SIGKILLs itself mid-sweep, survivor's
	// lease in flight, manifest and journal left wherever they were.
	expectSIGKILLed(t, "doomed coordinator", coord, coordOut)

	// Phase 4: cold restart on the same journal and address.
	l := rebind(t, addr)
	c2, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		BlockSize:   farmBlockSize,
		JournalPath: journal,
		LeaseTTL:    2 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Serve(context.Background(), l)
	if err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	if st.Paused || st.UnitsRestored+st.UnitsExecuted != st.UnitsTotal {
		t.Fatalf("restarted farm did not complete: %+v", st)
	}
	if st.UnitsRestored == 0 {
		t.Fatal("restart restored nothing; the first incarnation's journal was lost")
	}
	if st.Epoch != 2 {
		t.Fatalf("restarted coordinator serves under epoch %d, want 2", st.Epoch)
	}
	if got := metrics.Counter(MetricCoordRestarts).Value(); got != restartsBase+1 {
		t.Fatalf("coordinator_restarts = %d, want %d", got, restartsBase+1)
	}
	if got := metrics.Counter(MetricCoordRejoins).Value(); got <= rejoinsBase {
		t.Fatal("no rejoin was accepted; the survivor should have resumed its session")
	}

	var sv workerOut
	select {
	case sv = <-survivorCh:
	case <-time.After(time.Minute):
		t.Fatal("survivor did not exit after End")
	}
	if sv.err != nil {
		t.Fatalf("survivor: %v", sv.err)
	}
	if sv.stats.Rejoins == 0 {
		t.Fatal("survivor never resumed a session across the coordinator restart")
	}

	got, _, err := sweep.MergeFiles([]string{journal})
	if err != nil {
		t.Fatal(err)
	}
	sameFarmResult(t, want, got)
}

// TestFarmStandbyTakeoverByteIdentical: a warm standby tails the
// primary's manifest, takes over under a higher epoch when the
// primary is SIGKILLed, and finishes the sweep byte-identically —
// while the worker finds the standby's address by rotating its
// -connect list.
func TestFarmStandbyTakeoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := mustFarmConfig()
	want := farmWant(t)
	journal := filepath.Join(t.TempDir(), "farm.journal")
	addr1 := deadAddr(t)
	addr2 := deadAddr(t)

	takeoverBase := metrics.Counter(MetricCoordTakeovers).Value()

	// Standby first: it must observe the primary's manifest appear,
	// then stop moving.
	type standbyOut struct {
		stats *CoordStats
		err   error
	}
	standbyCh := make(chan standbyOut, 1)
	go func() {
		st, err := RunStandby(context.Background(), StandbyConfig{
			Coordinator: CoordinatorConfig{
				Config:      cfg,
				BlockSize:   farmBlockSize,
				JournalPath: journal,
				LeaseTTL:    time.Second,
				Logf:        t.Logf,
			},
			PollEvery:     50 * time.Millisecond,
			TakeoverAfter: 2 * time.Second,
			Logf:          t.Logf,
		}, func() (net.Listener, error) {
			return net.Listen("tcp", addr2)
		})
		standbyCh <- standbyOut{st, err}
	}()

	primary, primaryOut := spawnCoordHelper(t, addr1, journal, 4, time.Second)

	type workerOut struct {
		stats *WorkerStats
		err   error
	}
	workerCh := make(chan workerOut, 1)
	go func() {
		st, err := RunWorker(context.Background(), WorkerConfig{
			Config:         cfg,
			BlockSize:      farmBlockSize,
			Name:           "failover-worker",
			Dial:           feed.Dialer(addr1, addr2),
			HeartbeatEvery: 100 * time.Millisecond,
			Backoff:        50 * time.Millisecond,
			MaxAttempts:    1000,
			Logf:           t.Logf,
		})
		workerCh <- workerOut{st, err}
	}()

	expectSIGKILLed(t, "primary coordinator", primary, primaryOut)

	var sb standbyOut
	select {
	case sb = <-standbyCh:
	case <-time.After(2 * time.Minute):
		t.Fatal("standby neither took over nor finished within 2 minutes")
	}
	if sb.err != nil {
		t.Fatalf("standby: %v", sb.err)
	}
	if sb.stats.Paused || sb.stats.UnitsRestored+sb.stats.UnitsExecuted != sb.stats.UnitsTotal {
		t.Fatalf("standby takeover did not complete the sweep: %+v", sb.stats)
	}
	if sb.stats.UnitsRestored == 0 {
		t.Fatal("standby restored nothing; the primary's journal was lost")
	}
	if sb.stats.Epoch < 2 {
		t.Fatalf("standby serves under epoch %d, want ≥ 2 (must fence the primary)", sb.stats.Epoch)
	}
	if got := metrics.Counter(MetricCoordTakeovers).Value(); got != takeoverBase+1 {
		t.Fatalf("coordinator_takeovers = %d, want %d", got, takeoverBase+1)
	}

	var wk workerOut
	select {
	case wk = <-workerCh:
	case <-time.After(time.Minute):
		t.Fatal("worker did not exit after End")
	}
	if wk.err != nil {
		t.Fatalf("worker: %v", wk.err)
	}
	if wk.stats.Rejoins == 0 {
		t.Fatal("worker never resumed its session on the promoted standby")
	}

	got, _, err := sweep.MergeFiles([]string{journal})
	if err != nil {
		t.Fatal(err)
	}
	sameFarmResult(t, want, got)
}

// TestFarmEpochFencingLadder drives the epoch fence directly: a higher
// epoch appears in the manifest (as a takeover would write it) and the
// older incarnation must refuse every subsequent durable write, stand
// down with ErrFenced, and leave the journal and the manifest's
// content untouched —
// from its idle path and from its result-append path — after which a
// restart climbs to the next epoch and finishes normally.
func TestFarmEpochFencingLadder(t *testing.T) {
	cfg := mustFarmConfig()

	t.Run("idle sweeper tick detects the fence", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "farm.journal")
		fencesBase := metrics.Counter(MetricCoordEpochFences).Value()
		c, err := NewCoordinator(CoordinatorConfig{
			Config:      cfg,
			BlockSize:   farmBlockSize,
			JournalPath: journal,
			LeaseTTL:    time.Minute,
			SweepEvery:  5 * time.Millisecond,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() {
			_, err := c.Serve(context.Background(), l)
			serveDone <- err
		}()

		path := coordManifestPath(journal)
		m := waitManifest(t, path, c.fingerprint)
		m.Epoch++
		if err := supervise.SaveSnapshot(path, c.fingerprint, m); err != nil {
			t.Fatal(err)
		}

		select {
		case err := <-serveDone:
			if !errors.Is(err, ErrFenced) {
				t.Fatalf("fenced coordinator returned %v, want ErrFenced", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("fenced idle coordinator did not stand down")
		}
		if got := metrics.Counter(MetricCoordEpochFences).Value(); got <= fencesBase {
			t.Fatal("epoch fence was not counted")
		}
		after, err := readCoordManifest(path, c.fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, m) {
			t.Fatalf("stale coordinator overwrote the manifest: %+v, want the takeover's %+v", after, m)
		}
	})

	t.Run("result append is refused and a restart climbs the ladder", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "farm.journal")
		want := farmWant(t)
		fencesBase := metrics.Counter(MetricCoordEpochFences).Value()
		c, err := NewCoordinator(CoordinatorConfig{
			Config:      cfg,
			BlockSize:   farmBlockSize,
			JournalPath: journal,
			LeaseTTL:    time.Minute,
			SweepEvery:  time.Hour, // never ticks: only the append path can notice
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Freeze the clock so lease expiry cannot interfere.
		frozen := time.Now()
		c.now = func() time.Time { return frozen }

		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() {
			_, err := c.Serve(context.Background(), l)
			serveDone <- err
		}()

		fw := joinFake(t, l.Addr().String(), "stale-path", c.fingerprint)
		defer fw.conn.Close()
		lease := fw.steal()

		// A takeover lands: the manifest now carries a higher epoch.
		m := waitManifest(t, coordManifestPath(journal), c.fingerprint)
		m.Epoch += 2 // two rungs up, as after a takeover plus a restart
		if err := supervise.SaveSnapshot(coordManifestPath(journal), c.fingerprint, m); err != nil {
			t.Fatal(err)
		}

		// A perfectly valid result — right lease, right gen, right
		// epoch for *this* incarnation — must now be refused at the
		// journal, because the incarnation itself is stale.
		lo, hi := c.plan.BlockRange(int(lease.Block))
		rows := make([][]float64, hi-lo)
		for i := range rows {
			rows[i] = []float64{}
		}
		unit := uint64(c.plan.UnitID(sweep.Unit{Day: int(lease.Day), Block: int(lease.Block), Param: int(lease.Params[0])}))
		if err := fw.enc.WriteResult(&feed.Result{Lease: lease.ID, Gen: lease.Gen, Epoch: fw.epoch, Unit: unit, Rets: rows}); err != nil {
			t.Fatal(err)
		}

		select {
		case err := <-serveDone:
			if !errors.Is(err, ErrFenced) {
				t.Fatalf("fenced coordinator returned %v, want ErrFenced", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("fenced coordinator did not stand down on the refused append")
		}
		if got := metrics.Counter(MetricCoordEpochFences).Value(); got <= fencesBase {
			t.Fatal("epoch fence was not counted")
		}
		// The journal must hold the header only — the fenced append
		// never reached it.
		if n := intactRecords(t, journal); n != 0 {
			t.Fatalf("fenced coordinator's journal has %d records, want header only", n)
		}
		after, err := readCoordManifest(coordManifestPath(journal), c.fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if after.Epoch != m.Epoch {
			t.Fatalf("stale coordinator overwrote the manifest epoch: %d, want %d", after.Epoch, m.Epoch)
		}

		// The ladder's next rung: a restart claims epoch+1 and serves
		// the whole sweep normally.
		c2, err := NewCoordinator(CoordinatorConfig{
			Config:      cfg,
			BlockSize:   farmBlockSize,
			JournalPath: journal,
			LeaseTTL:    500 * time.Millisecond, // expire the fenced incarnation's limbo lease fast
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		l2, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithCancel(context.Background())
		defer wcancel()
		go RunWorker(wctx, WorkerConfig{
			Config:         cfg,
			BlockSize:      farmBlockSize,
			Name:           "ladder-finisher",
			Addr:           l2.Addr().String(),
			HeartbeatEvery: 100 * time.Millisecond,
			Backoff:        20 * time.Millisecond,
		})
		st, err := c2.Serve(context.Background(), l2)
		if err != nil {
			t.Fatalf("post-fence restart: %v", err)
		}
		if st.Epoch != m.Epoch+1 {
			t.Fatalf("restart claimed epoch %d, want %d (one above the fence)", st.Epoch, m.Epoch+1)
		}
		if st.Paused || st.UnitsRestored+st.UnitsExecuted != st.UnitsTotal {
			t.Fatalf("post-fence restart did not complete: %+v", st)
		}
		got, _, err := sweep.MergeFiles([]string{journal})
		if err != nil {
			t.Fatal(err)
		}
		sameFarmResult(t, want, got)
	})
}

// TestFarmJournalTornTailHealedOnRestart SIGKILLs the coordinator
// mid-append (as far as a test can arrange it), then deliberately
// tears the journal's last record and restarts: the torn record must
// be detected and truncated, every intact unit restored, only the lost
// remainder re-run, and the merged output stay byte-identical.
func TestFarmJournalTornTailHealedOnRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := mustFarmConfig()
	want := farmWant(t)
	journal := filepath.Join(t.TempDir(), "farm.journal")
	addr := deadAddr(t)

	coord, coordOut := spawnCoordHelper(t, addr, journal, 6, 2*time.Second)
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		RunWorker(wctx, WorkerConfig{
			Config:         cfg,
			BlockSize:      farmBlockSize,
			Name:           "feeder",
			Addr:           addr,
			HeartbeatEvery: 100 * time.Millisecond,
			Backoff:        50 * time.Millisecond,
			MaxAttempts:    1000,
			Logf:           t.Logf,
		})
	}()
	expectSIGKILLed(t, "doomed coordinator", coord, coordOut)
	wcancel()
	<-workerDone

	// Tear the tail: chop a few bytes off whatever the killed process
	// managed to write, guaranteeing a partial final record.
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 64 {
		t.Fatalf("killed coordinator left a %d-byte journal; nothing to tear", fi.Size())
	}
	if err := os.Truncate(journal, fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	// Records before the torn one survive (their CRCs were written
	// whole).
	intact := intactRecords(t, journal)
	if intact < 1 {
		t.Fatalf("only %d intact entries after the tear; raise the kill threshold", intact)
	}

	c2, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		BlockSize:   farmBlockSize,
		JournalPath: journal,
		LeaseTTL:    time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := rebind(t, addr)
	w2ctx, w2cancel := context.WithCancel(context.Background())
	defer w2cancel()
	go RunWorker(w2ctx, WorkerConfig{
		Config:         cfg,
		BlockSize:      farmBlockSize,
		Name:           "healer",
		Addr:           addr,
		HeartbeatEvery: 100 * time.Millisecond,
		Backoff:        20 * time.Millisecond,
	})
	st, err := c2.Serve(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered == nil {
		t.Fatal("restart did not report the torn tail it must have healed")
	}
	if st.UnitsRestored != intact {
		t.Fatalf("restored %d units, want exactly the %d intact journal entries", st.UnitsRestored, intact)
	}
	if st.UnitsExecuted != st.UnitsTotal-intact {
		t.Fatalf("re-ran %d units, want exactly the %d not intact on disk", st.UnitsExecuted, st.UnitsTotal-intact)
	}
	got, _, err := sweep.MergeFiles([]string{journal})
	if err != nil {
		t.Fatal(err)
	}
	sameFarmResult(t, want, got)
}

// TestFarmCoordinatorMetricsAccountingConcurrent hammers the join path
// from concurrent connections and requires the recovery counters to
// account exactly: every handshake counted once as a join, every
// session resume counted once as a rejoin, no drops and no double
// counting under contention.
func TestFarmCoordinatorMetricsAccountingConcurrent(t *testing.T) {
	cfg := mustFarmConfig()
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		BlockSize:   farmBlockSize,
		JournalPath: filepath.Join(t.TempDir(), "farm.journal"),
		LeaseTTL:    time.Minute,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	waitAccepting(t, l.Addr().String())

	joinedBase := metrics.Counter(MetricWorkersJoined).Value()
	rejoinsBase := metrics.Counter(MetricCoordRejoins).Value()

	const (
		producers = 8
		sessions  = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prior := uint64(0)
			for s := 0; s < sessions; s++ {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					errs <- err
					return
				}
				enc := feed.NewEncoder(conn, nil)
				if err := enc.WriteJoin(&feed.Join{
					Version:      feed.ProtocolVersion,
					Name:         "acct-" + strconv.Itoa(p),
					Fingerprint:  c.fingerprint,
					PriorSession: prior,
				}); err != nil {
					conn.Close()
					errs <- err
					return
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				f, err := feed.NewDecoder(conn).Read()
				conn.Close()
				if err != nil {
					errs <- err
					return
				}
				g, ok := f.(*feed.Grant)
				if !ok {
					errs <- errors.New("handshake did not yield a Grant")
					return
				}
				prior = g.Session
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	wantJoined := joinedBase + producers*sessions
	wantRejoins := rejoinsBase + producers*(sessions-1)
	waitCounter(t, MetricWorkersJoined, wantJoined)
	waitCounter(t, MetricCoordRejoins, wantRejoins)
	// Settle, then require exactness: counted once per event, never
	// again.
	time.Sleep(50 * time.Millisecond)
	if got := metrics.Counter(MetricWorkersJoined).Value(); got != wantJoined {
		t.Fatalf("workers_joined = %d, want exactly %d", got, wantJoined)
	}
	if got := metrics.Counter(MetricCoordRejoins).Value(); got != wantRejoins {
		t.Fatalf("coordinator_rejoins_accepted = %d, want exactly %d", got, wantRejoins)
	}

	cancel()
	<-serveDone
}

// TestStandbyRejectsBadConfigAtStart: a standby that could never serve
// must say so at once, not after a whole TakeoverAfter of silence has
// left the farm without a coordinator.
func TestStandbyRejectsBadConfigAtStart(t *testing.T) {
	cfg := mustFarmConfig()
	mixed := cfg.Levels[1]
	mixed.DeltaS = cfg.Levels[0].DeltaS + 60
	cfg.Levels = []strategy.Params{cfg.Levels[0], mixed}
	if cfg.Validate() == nil {
		t.Fatal("mixed-∆s levels validated; the test needs an invalid configuration")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	st, err := RunStandby(ctx, StandbyConfig{
		Coordinator: CoordinatorConfig{
			Config:      cfg,
			BlockSize:   farmBlockSize,
			JournalPath: filepath.Join(t.TempDir(), "farm.journal"),
		},
		PollEvery:     10 * time.Millisecond,
		TakeoverAfter: time.Hour,
	}, func() (net.Listener, error) {
		t.Error("a standby with an invalid configuration asked for a listener")
		return nil, errors.New("no listener")
	})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("standby returned after %v, want the validation error within 1 s", elapsed)
	}
	if err == nil || errors.Is(err, context.DeadlineExceeded) || st != nil {
		t.Fatalf("standby returned (%v, %v), want the configuration's validation error", st, err)
	}
	if want := cfg.Validate().Error(); err.Error() != want {
		t.Fatalf("standby error %q, want the validation error %q", err, want)
	}
}

// TestStandbyRejectsForeignManifest: a standby configured for another
// sweep than the manifest it tails returns the fingerprint error on its
// first poll, instead of reading the manifest as silence and promoting
// itself over a healthy primary.
func TestStandbyRejectsForeignManifest(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "farm.journal")
	if err := supervise.SaveSnapshot(coordManifestPath(journal), "another-sweep", &coordManifest{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	st, err := RunStandby(ctx, StandbyConfig{
		Coordinator: CoordinatorConfig{
			Config:      mustFarmConfig(),
			BlockSize:   farmBlockSize,
			JournalPath: journal,
		},
		PollEvery:     10 * time.Millisecond,
		TakeoverAfter: time.Hour,
	}, func() (net.Listener, error) {
		t.Error("a standby of another sweep asked for a listener")
		return nil, errors.New("no listener")
	})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("standby returned after %v, want the fingerprint error within 1 s", elapsed)
	}
	if !errors.Is(err, errForeignManifest) || st != nil {
		t.Fatalf("standby returned (%v, %v), want errForeignManifest", st, err)
	}
}

// TestStandbyHoldsWhileIdlePrimaryTouches: an idle primary rewrites
// nothing, but its sweeper's touches keep the manifest's modification
// time moving, so a standby with a takeover TTL of many ticks holds
// off; once the primary stops, the standby promotes and claims the
// next epoch.
func TestStandbyHoldsWhileIdlePrimaryTouches(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "farm.journal")
	cc := CoordinatorConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		JournalPath: journal,
		LeaseTTL:    time.Minute,
		SweepEvery:  20 * time.Millisecond,
		Logf:        t.Logf,
	}
	primary, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primaryCtx, stopPrimary := context.WithCancel(context.Background())
	primaryDone := make(chan struct{})
	go func() {
		defer close(primaryDone)
		primary.Serve(primaryCtx, l)
	}()
	defer func() {
		stopPrimary()
		<-primaryDone
	}()
	waitManifest(t, coordManifestPath(journal), primary.fingerprint)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	promoted := make(chan struct{})
	standbyDone := make(chan *CoordStats, 1)
	go func() {
		st, _ := RunStandby(ctx, StandbyConfig{
			Coordinator:   cc,
			PollEvery:     10 * time.Millisecond,
			TakeoverAfter: 300 * time.Millisecond,
			Logf:          t.Logf,
		}, func() (net.Listener, error) {
			close(promoted)
			return net.Listen("tcp", "127.0.0.1:0")
		})
		standbyDone <- st
	}()

	select {
	case <-promoted:
		t.Fatal("standby promoted itself over a live, idle primary")
	case <-time.After(1500 * time.Millisecond):
	}
	stopPrimary()
	<-primaryDone
	select {
	case <-promoted:
	case <-time.After(10 * time.Second):
		t.Fatal("standby did not promote after the primary stopped")
	}
	m := waitManifest(t, coordManifestPath(journal), primary.fingerprint)
	for deadline := time.Now().Add(10 * time.Second); m.Epoch != 2; m = waitManifest(t, coordManifestPath(journal), primary.fingerprint) {
		if time.Now().After(deadline) {
			t.Fatalf("promoted standby left epoch %d in the manifest, want 2", m.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-standbyDone
}

// TestFarmClobberedClaimReasserted: a stale writer whose fence check
// preceded this incarnation's claim can still replace the manifest
// with its lower epoch. The next sweeper tick sees that the file is
// not its own and rewrites the claim rather than touching the stale
// content.
func TestFarmClobberedClaimReasserted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "farm.journal")
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		JournalPath: journal,
		LeaseTTL:    time.Minute,
		SweepEvery:  5 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		_, err := c.Serve(ctx, l)
		serveDone <- err
	}()
	defer func() {
		cancel()
		<-serveDone
	}()

	path := coordManifestPath(journal)
	claim := waitManifest(t, path, c.fingerprint)
	stale := *claim
	stale.Epoch--
	if err := supervise.SaveSnapshot(path, c.fingerprint, &stale); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := readCoordManifest(path, c.fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if m.Epoch == claim.Epoch {
			break
		}
		select {
		case err := <-serveDone:
			t.Fatalf("coordinator stopped (%v) instead of re-asserting its claim", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("manifest still holds epoch %d, want the claim's epoch %d re-written", m.Epoch, claim.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// copyV1Farm installs the v1 farm fixture — a manifest written by the
// previous coordinator format mid-sweep (one lease held, the pending
// deque reordered by two reclaims) and its header-only journal — in a
// fresh directory and returns the journal path.
func copyV1Farm(t *testing.T) string {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "farm.journal")
	for src, dst := range map[string]string{"v1.journal": journal, "v1.coord": coordManifestPath(journal)} {
		raw, err := os.ReadFile(filepath.Join("testdata", src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return journal
}

// TestFarmV1ManifestRestartKeepsLeasesAndPending: a coordinator
// restarted on a v1 manifest serves under the next epoch with the v1
// lease held in limbo for its owner and the pending order as recorded,
// and its first save converts the file to a snapshot.
func TestFarmV1ManifestRestartKeepsLeasesAndPending(t *testing.T) {
	journal := copyV1Farm(t)
	path := coordManifestPath(journal)
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		JournalPath: journal,
		LeaseTTL:    time.Minute,
		SweepEvery:  time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prior, fp := readCoordManifestV1(raw)
	if prior == nil || fp != c.fingerprint {
		t.Fatalf("fixture is not a v1 manifest of this sweep: fingerprint %q", fp)
	}
	if len(prior.Leases) == 0 || len(prior.Pending) < 2 || prior.Pending[0] < prior.Pending[1] {
		t.Fatalf("fixture must hold a lease and a reordered pending deque: %+v", prior)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan *CoordStats, 1)
	go func() {
		st, _ := c.Serve(ctx, l)
		serveDone <- st
	}()

	// The epoch claim is the restart's first write: it converts the file.
	var m coordManifest
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		err := supervise.LoadSnapshot(path, c.fingerprint, &m)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted coordinator left a manifest that does not load as a snapshot: %v", err)
		}
	}
	if m.Epoch != prior.Epoch+1 {
		t.Fatalf("restart serves under epoch %d, want %d", m.Epoch, prior.Epoch+1)
	}
	if !reflect.DeepEqual(m.Leases, prior.Leases) {
		t.Fatalf("leases %+v, want the v1 lease table %+v held in limbo", m.Leases, prior.Leases)
	}
	if !reflect.DeepEqual(m.Pending, prior.Pending) {
		t.Fatalf("pending %v, want the v1 order %v", m.Pending, prior.Pending)
	}

	// A fresh worker is dealt the front of the recorded deque, under a
	// lease id above every id the v1 incarnation issued.
	fw := joinFake(t, l.Addr().String(), "fresh", c.fingerprint)
	defer fw.conn.Close()
	if fw.epoch != prior.Epoch+1 {
		t.Fatalf("grant carries epoch %d, want %d", fw.epoch, prior.Epoch+1)
	}
	lease := fw.steal()
	if gid := c.plan.GroupID(int(lease.Day), int(lease.Block)); gid != prior.Pending[0] {
		t.Fatalf("first lease is group %d, want the v1 deque's front %d", gid, prior.Pending[0])
	}
	if lease.ID <= prior.NextLease {
		t.Fatalf("lease id %d reuses the v1 incarnation's id space (next was %d)", lease.ID, prior.NextLease)
	}

	cancel()
	if st := <-serveDone; st == nil || st.Epoch != prior.Epoch+1 {
		t.Fatalf("serve stats %+v, want epoch %d", st, prior.Epoch+1)
	}
}

// TestFarmV1ManifestFingerprintMismatchRefused: a v1 manifest keeps its
// fingerprint guard — a coordinator for a different sweep refuses it
// instead of adopting its epoch, leases and pending order.
func TestFarmV1ManifestFingerprintMismatchRefused(t *testing.T) {
	journal := copyV1Farm(t)
	cfg := mustFarmConfig()
	cfg.Market.Seed++
	c, err := NewCoordinator(CoordinatorConfig{Config: cfg, BlockSize: farmBlockSize, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve(context.Background(), l); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("serve on another sweep's v1 manifest returned %v, want a fingerprint refusal", err)
	}
}
