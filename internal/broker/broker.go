// Package broker is the partitioned signal-distribution subsystem:
// the layer between the paper's single-consumer pipeline and the
// ROADMAP's "millions of subscribers" north star. It partitions the
// pair universe into topic partitions by a stable hash of the pair id,
// computes each interval's correlation matrix once, in one
// corr.OnlineEngine whose matrices it logs, runs one supervised
// strategy processor per partition over that matrix log, and fans the
// resulting signal logs out to consumer groups over the feed codec's
// snapshot+delta protocol with per-member ack offsets.
//
// Delivery contract: every partition's signal log is deterministic —
// a function only of the input return stream — and offsets are
// contiguous from 1. A processor that dies (panic, or hard kill
// detected by lease expiry) is relaunched by the lease loop under
// a new generation. Its durable state is its own log: every ready
// matrix yields one record, so the record count is its cursor into
// the matrix log and the log's last W records are its C̄ rings.
// Fenced appends keep a superseded generation out, so the log
// continues bit-identically and a subscriber resuming from any
// committed offset never loses or double-sees a signal, no matter how
// many crashes or reconnects happened in between (see DESIGN.md §7).
//
// Each partition log is a window, not the day: once a consumer group
// exists, a record is released when every group has committed past it
// and W newer records stand behind it, and its columns are reused for
// the processor's next interval. What the broker retains follows W and
// consumer lag.
//
// Every lease, fencing, membership, epoch, commit and release decision
// is made by one pure state machine (core.go) that the Broker steps
// under its one lock; the data plane keeps its own locks.
package broker

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
	"marketminer/internal/supervise"
)

// Signal kinds carried in feed.Signal.Kind.
const (
	// KindUpdate is a plain per-interval coefficient update.
	KindUpdate uint8 = 0
	// KindDiverge marks the interval a pair crossed below the
	// divergence band C̄·(1−d) — the strategy's entry trigger.
	KindDiverge uint8 = 1
	// KindRevert marks the interval a diverged pair crossed back above
	// the band.
	KindRevert uint8 = 2
)

// Config tunes a Broker. Zero fields take the documented defaults.
type Config struct {
	// N is the stock-universe order (required, ≥ 2).
	N int
	// Partitions is the number of topic partitions (default 4).
	Partitions int
	// M is the correlation window in intervals (required, ≥ 2).
	M int
	// W is the C̄ moving-average window in matrices (default 5).
	W int
	// D is the divergence threshold (default 0.1).
	D float64
	// Type selects the correlation treatment (default Pearson).
	Type corr.Type
	// LeaseTTL is how stale a processor's lease renewal may be before
	// the lease loop declares it dead and rebalances (default 1s).
	LeaseTTL time.Duration
	// LeaseEvery is the lease loop's tick period (lease expiry and
	// member sweep) and an idle processor's beat period (default
	// 100ms).
	LeaseEvery time.Duration
	// MemberGrace is how long a disconnected group member keeps its
	// partition assignment before the group rebalances without it
	// (default 5s). It must comfortably exceed a subscriber's reconnect
	// backoff so wire faults do not reshuffle assignments.
	MemberGrace time.Duration
	// MaxDelta bounds the signals per delta frame (default 512).
	MaxDelta int
	// EvictLag evicts a subscriber whose next undelivered offset lags
	// the log end by more than this many signals (default 1<<20).
	EvictLag uint64
	// Heartbeat is the idle keep-alive period on subscriber
	// connections (default 1s).
	Heartbeat time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Now is the clock (default time.Now; tests inject a fake to drive
	// lease expiry deterministically).
	Now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.N < 2 || c.N > feed.MaxStocks {
		return c, fmt.Errorf("broker: %d stocks outside 2…%d (the Assign frame's universe bound)", c.N, feed.MaxStocks)
	}
	if c.M < 2 {
		return c, fmt.Errorf("broker: window M=%d too small", c.M)
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	nPairs := c.N * (c.N - 1) / 2
	if c.Partitions > nPairs {
		c.Partitions = nPairs
	}
	if c.Partitions >= 1<<16 {
		return c, fmt.Errorf("broker: %d partitions exceed uint16 wire range", c.Partitions)
	}
	if c.W <= 0 {
		c.W = 5
	}
	if c.D <= 0 {
		c.D = 0.1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Second
	}
	if c.LeaseEvery <= 0 {
		c.LeaseEvery = 100 * time.Millisecond
	}
	if c.MemberGrace <= 0 {
		c.MemberGrace = 5 * time.Second
	}
	if c.MaxDelta <= 0 {
		c.MaxDelta = 512
	}
	if c.EvictLag == 0 {
		c.EvictLag = 1 << 20
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// inputEntry is one interval of an inputLog: a return vector, or a
// matrix's triangle in pair-id order.
type inputEntry struct {
	s    int
	rets []float64
}

// inputLog is an append-only record of per-interval vectors, read by
// each consumer at its own cursor. The broker keeps two: the offered
// return vectors, which the correlation stage reads, and the ready
// matrices, which every partition processor reads. Entries below the
// lowest cursor any reader can still hold are released (see release),
// so what is retained follows consumer lag, not the length of the day.
// A later offer refills a released entry's vector, so a reader must be
// done with a vector before the floor passes it.
type inputLog struct {
	mu      sync.Mutex
	entries []inputEntry // entries[i] is entry base+i
	base    int          // entries below base are released
	free    [][]float64  // vectors of released entries
	lastS   int
	sealed  bool
}

// offer appends a copy of rets as entry s, in a released entry's
// vector when there is one.
func (l *inputLog) offer(s int, rets []float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed || (l.base+len(l.entries) > 0 && s <= l.lastS) {
		return false
	}
	var buf []float64
	if k := len(l.free) - 1; k >= 0 {
		buf, l.free = l.free[k][:0], l.free[:k]
	}
	l.entries = append(l.entries, inputEntry{s: s, rets: append(buf, rets...)})
	l.lastS = s
	return true
}

// get returns entry i, or whether the log is sealed with nothing at or
// after i. Both answers come from one critical section, so an entry
// appended just before the seal is never mistaken for the end. Reading
// a released entry panics: no reader may fall below the floor it was
// released at.
func (l *inputLog) get(i int) (e inputEntry, ok, drained bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < l.base {
		panic(fmt.Sprintf("broker: log entry %d read after release below %d", i, l.base))
	}
	if i -= l.base; i >= len(l.entries) {
		return inputEntry{}, false, l.sealed
	}
	return l.entries[i], true, false
}

// release drops every entry below floor, which every reader has
// passed, keeping their vectors for offer. The retained entries move
// to the front, so the entry array is reused too.
func (l *inputLog) release(floor int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := min(floor-l.base, len(l.entries)); k > 0 {
		for _, e := range l.entries[:k] {
			l.free = append(l.free, e.rets)
		}
		n := copy(l.entries, l.entries[k:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
		l.base += k
	}
}

func (l *inputLog) isSealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

func (l *inputLog) seal() {
	l.mu.Lock()
	l.sealed = true
	l.mu.Unlock()
}

// Broker owns the correlation stage, the partitions, their supervised
// processors, the consumer groups and the serving side. Construct with
// New, feed it via OfferReturns (or core.PipelineConfig.ReturnsTap),
// then FinishInput; Serve accepts subscriber connections until Close.
// Every lease, membership, epoch and commit decision is the core's
// (brokerState); the Broker is its shell.
type Broker struct {
	cfg      Config
	parts    []*partition
	input    *inputLog // offered return vectors
	eng      *corr.OnlineEngine
	matrices *inputLog // one triangle per ready matrix, in input order

	ctx    context.Context
	cancel context.CancelFunc
	start  sync.Once
	procWG sync.WaitGroup
	connWG sync.WaitGroup
	watch  atomic.Pointer[chan struct{}] // closed and replaced by every wake

	mu sync.Mutex // guards st; only apply takes it
	st brokerState
}

// New builds a Broker. The pair universe taq.AllPairs(cfg.N) is
// partitioned by PartitionOf; every pair belongs to exactly one
// partition.
func New(cfg Config) (*Broker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	eng, err := corr.NewOnlineEngine(corr.EngineConfig{Type: cfg.Type, M: cfg.M}, cfg.N)
	if err != nil {
		return nil, err
	}
	byPart := partitionPairs(cfg.N, cfg.Partitions)
	ctx, cancel := context.WithCancel(context.Background())
	b := &Broker{
		cfg:      cfg,
		input:    &inputLog{lastS: -1},
		eng:      eng,
		matrices: &inputLog{lastS: -1},
		ctx:      ctx,
		cancel:   cancel,
		st: brokerState{
			ttl: cfg.LeaseTTL, grace: cfg.MemberGrace, w: uint64(cfg.W),
			leases: make([]lease, cfg.Partitions), logs: make([]logTail, cfg.Partitions),
			groups: map[string]*group{},
		},
	}
	ch := make(chan struct{})
	b.watch.Store(&ch)
	for i := 0; i < cfg.Partitions; i++ {
		b.parts = append(b.parts, &partition{
			id:    i,
			pairs: byPart[i],
			log:   newPartitionLog(len(byPart[i])),
		})
	}
	return b, nil
}

// NumPartitions returns the partition count.
func (b *Broker) NumPartitions() int { return len(b.parts) }

// PartitionPairs returns the canonical pair ids owned by a partition
// (ascending; the caller must not mutate it).
func (b *Broker) PartitionPairs(p int) []int { return b.parts[p].pairs }

// Start launches the correlation stage, every partition processor and
// the lease loop, once.
func (b *Broker) Start() {
	b.start.Do(func() {
		if b.ctx.Err() != nil {
			return // closed
		}
		spawn(&b.procWG, b.correlate)
		b.apply(&event{kind: evStart, now: b.cfg.Now()}, nil)
		spawn(&b.procWG, b.leaseLoop) // after start: its first tick finds every lease granted
	})
}

// apply steps the core with ev (none when nil) under mu and, unless
// the step turned ev's processor away, runs under in the same critical
// section; it carries out the step's effects once mu is released and
// returns the processor's fate.
func (b *Broker) apply(ev *event, under func(st *brokerState)) fate {
	var f fate
	var effs []effect
	b.mu.Lock()
	if ev != nil {
		f, effs = b.st.step(*ev)
	}
	if under != nil && f == holds {
		under(&b.st)
	}
	b.mu.Unlock()
	for _, e := range effs {
		switch e.kind {
		case effLaunch:
			b.launchProcessor(b.parts[e.part], e.gen)
		case effWake:
			b.wake()
		case effCount:
			metrics.Counter(e.text).Add(e.n)
		case effLog:
			b.cfg.Logf("%s", e.text)
		case effRelease:
			b.parts[e.part].log.release(int(e.n))
		}
	}
	return f
}

// OfferReturns appends one interval's cross-sectional return vector
// (grid interval s, len cfg.N). Intervals must arrive in ascending s
// order; a duplicate or stale s is dropped (idempotent re-feeds), so
// a supervised pipeline restart can blindly replay its source. The
// signature matches core.PipelineConfig.ReturnsTap.
func (b *Broker) OfferReturns(s int, rets []float64) error {
	if len(rets) != b.cfg.N {
		return fmt.Errorf("broker: vector length %d, want %d", len(rets), b.cfg.N)
	}
	for i, x := range rets {
		if x != x || x-x != 0 {
			return fmt.Errorf("broker: non-finite return for stock %d", i)
		}
	}
	if b.input.offer(s, rets) {
		b.wake()
	}
	return nil
}

// FinishInput seals the input log: the correlation stage drains it and
// seals the matrix log, processors drain that and seal their
// partitions, after which subscribers receive End frames.
func (b *Broker) FinishInput() {
	b.input.seal()
	b.wake()
}

// Close tears the broker down: cancels processors and handlers, which
// closes the listeners, and waits for every goroutine.
func (b *Broker) Close() {
	b.cancel()
	b.wake()
	b.procWG.Wait()
	b.connWG.Wait()
}

// wake broadcasts a state change to every waiter (the correlation
// stage and processors waiting for input, handlers waiting for signals
// or epoch changes).
func (b *Broker) wake() {
	ch := make(chan struct{})
	close(*b.watch.Swap(&ch))
}

// watcher returns the channel the next wake closes. A waiter takes it
// before it looks at what it waits for, so a wake in between is seen.
func (b *Broker) watcher() <-chan struct{} { return *b.watch.Load() }

// wait blocks until w is closed, a timeout, or ctx death; false means
// ctx died.
func (b *Broker) wait(ctx context.Context, w <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-w:
		return true
	case <-t.C:
		return true
	}
}

// KillPartition hard-kills partition p's current processor: the
// in-process analogue of SIGKILL on a partition worker. The processor
// dies at its next lease beat without flushing anything; only the
// lease loop's next tick discovers the death and relaunches under a
// new generation.
func (b *Broker) KillPartition(p int) {
	b.apply(&event{kind: evKill, part: p}, nil)
}

// launchProcessor runs one supervised processor incarnation chain for
// generation gen of partition p.
func (b *Broker) launchProcessor(p *partition, gen int) {
	spawn(&b.procWG, func() {
		name := fmt.Sprintf("broker-partition-%d", p.id)
		err := supervise.Run(b.ctx, name, supervise.Policy{}, func(ctx context.Context, progress func()) error {
			return b.runProcessor(ctx, p, gen, progress)
		})
		if err != nil && b.ctx.Err() == nil {
			b.cfg.Logf("broker: %s gen %d: %v", name, gen, err)
		}
	})
}

// spawn runs f on its own goroutine, counted by wg.
func spawn(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
}

// releaseMatrices drops every matrix below the lowest record count of
// the partitions that own pairs: a processor resumes at its own record
// count, so nothing below it is read again. A pairless partition reads
// no matrix (it only waits for the seal), so it does not hold the
// floor.
func (b *Broker) releaseMatrices() {
	floor := -1
	for _, p := range b.parts {
		if r := p.log.records(); len(p.pairs) > 0 && (floor < 0 || r < floor) {
			floor = r
		}
	}
	b.matrices.release(floor)
}

// leaseLoop steps a tick every LeaseEvery: lease expiry and the
// member sweep.
func (b *Broker) leaseLoop() {
	t := time.NewTicker(b.cfg.LeaseEvery)
	defer t.Stop()
	for {
		select {
		case <-b.ctx.Done():
			return
		case <-t.C:
			b.apply(&event{kind: evTick, now: b.cfg.Now()}, nil)
		}
	}
}

// Done reports whether every partition has fully processed the sealed
// input. A partition seals only after the matrix log, which seals only
// after the input, so the partitions alone decide.
func (b *Broker) Done() bool {
	for _, p := range b.parts {
		if !p.log.isSealed() {
			return false
		}
	}
	return true
}

// WaitDone blocks until Done or ctx death.
func (b *Broker) WaitDone(ctx context.Context) error {
	for {
		w := b.watcher()
		if b.Done() {
			return nil
		}
		if !b.wait(ctx, w, 50*time.Millisecond) {
			return ctx.Err()
		}
	}
}

// MemberCount reports the connected (alive) members across all
// consumer groups — cmd/mmbroker's serve mode gates feeding on it so
// orchestrated runs don't race subscribers joining.
func (b *Broker) MemberCount() int {
	n := 0
	b.apply(nil, func(st *brokerState) {
		for _, g := range st.groups {
			for _, m := range g.members {
				if m.alive {
					n++
				}
			}
		}
	})
	return n
}
