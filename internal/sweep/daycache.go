package sweep

import (
	"math"
	"sync"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
)

// preparedDay is one trading day as every batch driver reads it: the
// generated/cleaned/sampled data, the correlation engine's view of it
// (validated once, with the per-stock moment table every block of the
// day shares) and, when screening is enabled, the day's kept-pair set
// by pair id (nil when screening is disabled) — identical for every
// block of the day by construction.
type preparedDay struct {
	dd   *backtest.DayData
	corr *corr.Day
	kept []bool
}

// dayCache is the bounded, lazily-filled cache of prepared days that
// GroupRunner's groups and Farm's jobs share. It prepares a day the
// first time any worker asks for it (singleflight — concurrent callers
// for the same day block on one preparation) and evicts the
// least-recently-used completed day once the cache is full, so a
// multi-day sweep holds O(workers) days, not O(days). Capacity around
// workers+1 keeps every worker's current day resident while a
// sequential day scan reuses each entry across all the work that
// reaches it near the same time. The generator is seeded per day, so
// whichever worker arrives first produces the same data any other
// would have, and a re-prepared day is bit-identical.
type dayCache struct {
	prepare func(day int) (*preparedDay, error)

	mu      sync.Mutex
	cap     int
	clock   int64
	entries map[int]*dayCacheEntry

	// highWater records the largest number of simultaneously resident
	// entries; tests use it to pin the bound. It can exceed cap only
	// when every resident entry is still being prepared (eviction never
	// drops an in-flight preparation), which bounds it by cap+workers.
	highWater int
}

type dayCacheEntry struct {
	ready    chan struct{} // closed when day/err are set
	day      *preparedDay
	err      error
	done     bool
	lastUsed int64
}

// newDayCache returns a cache holding at most capacity completed days
// (minimum 1).
func newDayCache(capacity int, prepare func(day int) (*preparedDay, error)) *dayCache {
	return &dayCache{
		prepare: prepare,
		cap:     max(capacity, 1),
		entries: make(map[int]*dayCacheEntry),
	}
}

// dayCacheCap sizes a sweep's day cache: one day per worker plus a
// spare so a worker rolling to the next day rarely evicts a day a peer
// is still reading, clamped to the number of days.
func dayCacheCap(days, workers int) int { return min(max(workers+1, 2), days) }

// get returns the prepared day d, preparing it if no other caller
// already has.
func (c *dayCache) get(d int) (*preparedDay, error) {
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[d]; ok {
		e.lastUsed = c.clock
		c.mu.Unlock()
		<-e.ready
		return e.day, e.err
	}
	if len(c.entries) >= c.cap {
		victim, oldest := -1, int64(math.MaxInt64)
		for day, e := range c.entries {
			if e.done && e.lastUsed < oldest {
				victim, oldest = day, e.lastUsed
			}
		}
		if victim >= 0 {
			delete(c.entries, victim)
		}
	}
	e := &dayCacheEntry{ready: make(chan struct{}), lastUsed: c.clock}
	c.entries[d] = e
	c.highWater = max(c.highWater, len(c.entries))
	c.mu.Unlock()

	day, err := c.prepare(d)

	c.mu.Lock()
	e.day, e.err = day, err
	e.done = true
	c.mu.Unlock()
	close(e.ready)
	return day, err
}
