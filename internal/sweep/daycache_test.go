package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDayCacheSingleflightAndBound(t *testing.T) {
	var prepared atomic.Int64
	c := newDayCache(3, func(d int) (*preparedDay, error) {
		prepared.Add(1)
		return &preparedDay{}, nil
	})

	// Many goroutines racing over a few days: each day is prepared at
	// most once while it stays resident, and residency never exceeds
	// the capacity (all preparations here complete, so no in-flight
	// overshoot applies).
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < 3; d++ {
				if _, err := c.get(d); err != nil {
					t.Errorf("get(%d): %v", d, err)
				}
			}
		}()
	}
	wg.Wait()
	if got := prepared.Load(); got != 3 {
		t.Errorf("3 resident days prepared %d times, want 3", got)
	}
	if c.highWater > 3 {
		t.Errorf("high-water mark %d exceeds capacity 3", c.highWater)
	}

	// A fourth day must evict the least-recently-used completed day,
	// and re-requesting that day re-prepares it.
	if _, err := c.get(3); err != nil {
		t.Fatal(err)
	}
	if c.highWater > 3 {
		t.Errorf("high-water mark %d after eviction, want <= 3", c.highWater)
	}
	before := prepared.Load()
	if _, err := c.get(0); err != nil { // day 0 is the LRU victim
		t.Fatal(err)
	}
	if prepared.Load() != before+1 {
		t.Errorf("evicted day was not re-prepared (prepared %d -> %d)", before, prepared.Load())
	}
}

func TestDayCachePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	c := newDayCache(2, func(d int) (*preparedDay, error) {
		calls++
		if d == 1 {
			return nil, boom
		}
		return &preparedDay{}, nil
	})
	if _, err := c.get(1); !errors.Is(err, boom) {
		t.Fatalf("get(1) err = %v, want boom", err)
	}
	// The failed entry is cached like any other: same error, no retry
	// while resident.
	if _, err := c.get(1); !errors.Is(err, boom) {
		t.Fatalf("second get(1) err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("failed day prepared %d times while resident, want 1", calls)
	}
}

func TestDayCacheCap(t *testing.T) {
	cases := []struct{ days, workers, want int }{
		{10, 1, 2},
		{10, 4, 5},
		{3, 8, 3},
		{1, 8, 1},
		{10, 0, 2},
	}
	for _, tc := range cases {
		if got := dayCacheCap(tc.days, tc.workers); got != tc.want {
			t.Errorf("dayCacheCap(%d, %d) = %d, want %d", tc.days, tc.workers, got, tc.want)
		}
	}
}

// TestGroupDispatchBoundsResidentDays drives the group dispatch every
// sweep driver shares over a 20-day plan with several blocks per day:
// memory is bounded by the worker count, not by the number of days.
// One worker prepares every day exactly once and never holds more than
// two; two workers stay within the cache bound.
func TestGroupDispatchBoundsResidentDays(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := testConfig(t, 4, 20, 1, 42)
		cfg.Workers = workers
		r, err := NewGroupRunner(cfg, 2) // 6 pairs: 3 blocks per day
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		prepared := map[int]int{}
		prepare := r.days.prepare
		r.days.prepare = func(d int) (*preparedDay, error) {
			mu.Lock()
			prepared[d]++
			mu.Unlock()
			return prepare(d)
		}
		groups := make([][]Unit, r.plan.NumGroups())
		for gid := range groups {
			groups[gid] = r.plan.groupUnits(gid)
		}
		var units atomic.Int64
		err = r.runGroups(context.Background(), groups, func(Entry, int64) error {
			units.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(units.Load()) != r.plan.NumUnits() {
			t.Errorf("workers=%d: %d of %d units emitted", workers, units.Load(), r.plan.NumUnits())
		}
		bound := dayCacheCap(r.plan.Days, workers)
		if r.days.highWater > bound {
			t.Errorf("workers=%d: %d days resident, bound %d", workers, r.days.highWater, bound)
		}
		if len(prepared) != r.plan.Days {
			t.Errorf("workers=%d: %d of %d days prepared", workers, len(prepared), r.plan.Days)
		}
		if workers == 1 {
			if bound != 2 {
				t.Errorf("one worker: cache bound %d, want 2", bound)
			}
			for d, n := range prepared {
				if n != 1 {
					t.Errorf("one worker: day %d prepared %d times", d, n)
				}
			}
		}
	}
}
