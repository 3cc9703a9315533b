package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Operational counters. Alongside the paper's trading-performance
// equations this package hosts the process-wide robustness counters the
// supervision and feed layers increment: slow-consumer evictions,
// handler panics, supervisor restarts, quarantined quotes, snapshot
// writes. They are deliberately simple — named monotonic int64s behind
// a sync.Map — so hot paths pay one atomic add and tests can assert on
// exact counts.

var opsRegistry sync.Map // name → *OpsCounter

// OpsCounter is a named monotonic operational counter.
type OpsCounter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *OpsCounter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative only in tests; production callers treat
// counters as monotonic).
func (c *OpsCounter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *OpsCounter) Value() int64 { return c.v.Load() }

// Counter returns the process-wide counter registered under name,
// creating it on first use. Safe for concurrent use.
func Counter(name string) *OpsCounter {
	if c, ok := opsRegistry.Load(name); ok {
		return c.(*OpsCounter)
	}
	c, _ := opsRegistry.LoadOrStore(name, new(OpsCounter))
	return c.(*OpsCounter)
}

// Counters snapshots every registered counter. Names are returned in
// sorted order for stable logs.
func Counters() []NamedCount {
	var out []NamedCount
	opsRegistry.Range(func(k, v any) bool {
		out = append(out, NamedCount{Name: k.(string), Value: v.(*OpsCounter).Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedCount is one Counters() entry.
type NamedCount struct {
	Name  string
	Value int64
}
