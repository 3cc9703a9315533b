package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsAllJobs(t *testing.T) {
	p := New(4)
	var hits [100]atomic.Int32
	err := p.Map(context.Background(), 100, func(ctx context.Context, i int) error {
		hits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("job %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestConcurrencyBound(t *testing.T) {
	p := New(3)
	var cur, max atomic.Int32
	var mu sync.Mutex
	err := p.Map(context.Background(), 50, func(ctx context.Context, i int) error {
		n := cur.Add(1)
		mu.Lock()
		if n > max.Load() {
			max.Store(n)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > 3 {
		t.Errorf("observed %d concurrent jobs, bound is 3", m)
	}
}

func TestFirstErrorCancels(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	var ran atomic.Int32
	err := p.Map(context.Background(), 10000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() >= 10000 {
		t.Error("error did not cancel outstanding jobs")
	}
}

func TestContextCancellation(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := p.Map(ctx, 1000000, func(ctx context.Context, i int) error {
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMapEdgeCases(t *testing.T) {
	p := New(0) // clamps to 1
	if p.workers != 1 {
		t.Errorf("workers = %d", p.workers)
	}
	if err := p.Map(context.Background(), 0, func(ctx context.Context, i int) error { return nil }); err != nil {
		t.Errorf("n=0 should be a no-op: %v", err)
	}
	if err := p.Map(context.Background(), -1, func(ctx context.Context, i int) error { return nil }); err == nil {
		t.Error("negative n should error")
	}
	if err := p.Map(context.Background(), 5, nil); err == nil {
		t.Error("nil fn should error")
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	p := New(4)
	var ran atomic.Int64
	err := p.Map(context.Background(), 64, func(ctx context.Context, i int) error {
		if i == 17 {
			panic("bad unit")
		}
		ran.Add(1)
		return nil
	})
	if err == nil {
		t.Fatal("panicking job should surface as a Map error")
	}
	if !strings.Contains(err.Error(), "job 17 panicked") || !strings.Contains(err.Error(), "bad unit") {
		t.Errorf("error does not identify the panicking job: %v", err)
	}
}
