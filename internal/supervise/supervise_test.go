package supervise

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"marketminer/internal/metrics"
)

// fakeClock records requested delays and never actually sleeps.
type fakeClock struct {
	slept []time.Duration
}

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) bool {
	f.slept = append(f.slept, d)
	return ctx.Err() == nil
}

func testPolicy(clk *fakeClock, seed int64) Policy {
	return Policy{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     80 * time.Millisecond,
		Jitter:         rand.New(rand.NewSource(seed)),
		Sleep:          clk.sleep,
	}
}

func TestRunRestartsAfterPanicUntilSuccess(t *testing.T) {
	clk := &fakeClock{}
	runs := 0
	restarts, circuits := metrics.Counter("supervise.restarts").Value(), metrics.Counter("supervise.circuit_open").Value()
	err := Run(context.Background(), "task", testPolicy(clk, 7), func(ctx context.Context, progress func()) error {
		runs++
		if runs < 4 {
			panic("transient crash")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d := metrics.Counter("supervise.restarts").Value() - restarts; runs != 4 || d != 3 {
		t.Errorf("runs=%d supervise.restarts +%d, want 4 runs and +3", runs, d)
	}
	if d := metrics.Counter("supervise.circuit_open").Value() - circuits; d != 0 {
		t.Errorf("supervise.circuit_open +%d after a clean finish, want +0", d)
	}
	if len(clk.slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(clk.slept))
	}
}

func TestRunBackoffScheduleDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clk := &fakeClock{}
		p := testPolicy(clk, 11)
		p.MaxFailures = 7
		err := Run(context.Background(), "task", p, func(ctx context.Context, progress func()) error {
			return errors.New("always fails")
		})
		var ce *CircuitError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CircuitError", err)
		}
		return clk.slept
	}
	first := run()
	if len(first) != 6 { // MaxFailures=7 → sleeps between failures 1..6
		t.Fatalf("slept %d times, want 6: %v", len(first), first)
	}
	// Exponential growth capped at MaxBackoff, jittered in [d/2, d].
	base := []time.Duration{10, 20, 40, 80, 80, 80}
	rng := rand.New(rand.NewSource(11))
	for i, d := range first {
		b := base[i] * time.Millisecond
		want := b/2 + time.Duration(rng.Int63n(int64(b/2)+1))
		if d != want {
			t.Errorf("delay %d = %v, want %v", i, d, want)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("schedule not reproducible: %v vs %v", first, second)
		}
	}
}

func TestRunCircuitBreakerCountsConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{}
	p := testPolicy(clk, 3)
	p.MaxFailures = 4
	runs := 0
	restarts, circuits := metrics.Counter("supervise.restarts").Value(), metrics.Counter("supervise.circuit_open").Value()
	err := Run(context.Background(), "stuck", p, func(ctx context.Context, progress func()) error {
		runs++
		return errors.New("hard failure")
	})
	var ce *CircuitError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CircuitError", err)
	}
	if ce.Name != "stuck" || ce.Failures != 4 {
		t.Errorf("circuit: %+v", ce)
	}
	if d := metrics.Counter("supervise.restarts").Value() - restarts; runs != 4 || d != 3 {
		t.Errorf("runs=%d supervise.restarts +%d, want 4 runs and +3", runs, d)
	}
	if d := metrics.Counter("supervise.circuit_open").Value() - circuits; d != 1 {
		t.Errorf("supervise.circuit_open +%d, want +1", d)
	}
}

func TestRunProgressResetsFailureCount(t *testing.T) {
	// A task that makes progress before each crash must not trip the
	// breaker even after many more crashes than MaxFailures: it is
	// resuming further every time (the snapshot-restore story).
	clk := &fakeClock{}
	p := testPolicy(clk, 3)
	p.MaxFailures = 3
	runs := 0
	err := Run(context.Background(), "resumer", p, func(ctx context.Context, progress func()) error {
		runs++
		if runs <= 10 {
			progress()
			panic("crash after progress")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("progressing task tripped the breaker: %v (runs=%d)", err, runs)
	}
	if runs != 11 {
		t.Errorf("runs = %d, want 11", runs)
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Sleep: func(ctx context.Context, d time.Duration) bool {
		cancel()
		return false
	}}
	err := Run(ctx, "task", p, func(ctx context.Context, progress func()) error {
		return errors.New("fail once")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRetryDefaultJitterDiffersAcrossPolicies: with no injected
// Jitter, two policies draw from the process-wide source, so two
// clients that lost the same server do not share a redial schedule;
// every delay still lands in its [d/2, d] window.
func TestRetryDefaultJitterDiffersAcrossPolicies(t *testing.T) {
	schedule := func() []time.Duration {
		clk := &fakeClock{}
		err := Retry(context.Background(), Policy{MaxFailures: 9, Sleep: clk.sleep}, func(ctx context.Context, progress func()) error {
			return errors.New("down")
		})
		var ce *CircuitError
		if !errors.As(err, &ce) || ce.Failures != 9 {
			t.Fatalf("err = %v, want a CircuitError after 9 failures", err)
		}
		return clk.slept
	}
	a, b := schedule(), schedule()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("slept %d and %d times, want 8", len(a), len(b))
	}
	same := true
	for i := range a {
		d := (10 * time.Millisecond) << i // the default 10ms, doubling under the 2s cap
		for _, got := range []time.Duration{a[i], b[i]} {
			if got < d/2 || got > d {
				t.Errorf("delay %d = %v outside [%v, %v]", i, got, d/2, d)
			}
		}
		same = same && a[i] == b[i]
	}
	if same {
		t.Fatalf("two default policies drew the same schedule %v", a)
	}
}

// TestRetryPermanentReturnsAtOnce: a Permanent failure is returned
// unwrapped on the first attempt, without a backoff.
func TestRetryPermanentReturnsAtOnce(t *testing.T) {
	clk := &fakeClock{}
	refused := errors.New("refused")
	runs := 0
	err := Retry(context.Background(), testPolicy(clk, 1), func(ctx context.Context, progress func()) error {
		runs++
		return Permanent(refused)
	})
	if err != refused || runs != 1 || len(clk.slept) != 0 {
		t.Fatalf("err=%v runs=%d sleeps=%d, want the bare error after one run and no sleep", err, runs, len(clk.slept))
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

// TestRetryDoesNotRecoverPanics: only Run isolates panics; under Retry
// a panicking task unwinds through the caller.
func TestRetryDoesNotRecoverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the task's panic", r)
		}
	}()
	Retry(context.Background(), testPolicy(&fakeClock{}, 1), func(ctx context.Context, progress func()) error {
		panic("boom")
	})
	t.Fatal("Retry returned after a panic")
}

// TestRedialRetriesForeverUnderTheCap: Redial(b, 0) keeps redialing
// past the default circuit breaker, with delays capped at 32×b.
func TestRedialRetriesForeverUnderTheCap(t *testing.T) {
	clk := &fakeClock{}
	p := Redial(10*time.Millisecond, 0)
	p.Sleep = clk.sleep
	runs := 0
	err := Retry(context.Background(), p, func(ctx context.Context, progress func()) error {
		if runs++; runs <= 20 {
			return errors.New("down")
		}
		return nil
	})
	if err != nil || len(clk.slept) != 20 {
		t.Fatalf("err=%v after %d sleeps, want nil after 20", err, len(clk.slept))
	}
	for i, d := range clk.slept {
		if d > 320*time.Millisecond {
			t.Errorf("delay %d = %v above the 32× cap", i, d)
		}
	}
	if last := clk.slept[len(clk.slept)-1]; last < 160*time.Millisecond {
		t.Errorf("final delay %v never reached the cap window", last)
	}
}

func TestGracefulDrainCleanAndForced(t *testing.T) {
	// Clean: done closes within the deadline after cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(done)
	}()
	cancel()
	forced := false
	if ok := GracefulDrain(ctx, done, 5*time.Second, func() { forced = true }); !ok || forced {
		t.Fatalf("clean drain: ok=%v forced=%v", ok, forced)
	}

	// Already-done before any cancellation.
	done2 := make(chan struct{})
	close(done2)
	if ok := GracefulDrain(context.Background(), done2, time.Second, func() { t.Fatal("forced") }); !ok {
		t.Fatal("pre-completed drain reported forced")
	}

	// Forced: the pipeline never drains on its own; force must fire
	// and GracefulDrain must wait for done afterwards.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	done3 := make(chan struct{})
	if ok := GracefulDrain(ctx3, done3, time.Millisecond, func() { close(done3) }); ok {
		t.Fatal("stuck pipeline reported clean drain")
	}
}

// TestPolicyDefaults: every zero field takes its documented default,
// and a set field is kept.
func TestPolicyDefaults(t *testing.T) {
	p := (Policy{}).withDefaults()
	if p.InitialBackoff != 10*time.Millisecond || p.MaxBackoff != 2*time.Second || p.MaxFailures != 8 || p.Sleep == nil {
		t.Errorf("defaults = %+v", p)
	}
	if got := (Policy{MaxFailures: 3}).withDefaults().MaxFailures; got != 3 {
		t.Errorf("explicit MaxFailures = %d, want 3", got)
	}
}
