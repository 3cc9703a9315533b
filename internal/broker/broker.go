// Package broker is the partitioned signal-distribution subsystem:
// the layer between the paper's single-consumer pipeline and the
// ROADMAP's "millions of subscribers" north star. It partitions the
// pair universe into topic partitions by a stable hash of the pair id,
// runs one supervised correlation/strategy processor per partition —
// each owning a corr.OnlineEngine pair-subset whose Snapshot/Restore
// is the partition's state store — and fans the resulting signal log
// out to consumer groups over the feed codec's snapshot+delta
// protocol with per-member ack offsets.
//
// Delivery contract: every partition's signal log is deterministic —
// a function only of the input return stream — and offsets are
// contiguous from 1. A processor that dies (panic, or hard kill
// detected by lease expiry) is relaunched by the lease checker under
// a new generation; fenced appends plus replay-past-the-log
// deduplication regenerate the log bit-identically, so a subscriber
// resuming from any committed offset never loses or double-sees a
// signal, no matter how many crashes or reconnects happened in
// between (see DESIGN.md §7).
package broker

import (
	"context"
	"fmt"
	"sync"
	"time"

	"marketminer/internal/corr"
	"marketminer/internal/feed"
	"marketminer/internal/metrics"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
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
	// Workers is the per-partition engine parallelism (default 1 — the
	// parallelism of the broker is across partitions).
	Workers int
	// SnapshotEvery is the number of processed intervals between state-
	// store saves per partition (default 16).
	SnapshotEvery int
	// SnapshotDir, when non-empty, persists partition state through
	// supervise.SaveSnapshot files under this directory; empty keeps
	// state in memory (survives processor restarts, not the process).
	SnapshotDir string
	// LeaseTTL is how stale a processor's lease renewal may be before
	// the lease checker declares it dead and rebalances (default 1s).
	LeaseTTL time.Duration
	// LeaseEvery is the lease-checker and member-sweep period
	// (default 100ms).
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
	// Policy supervises each partition processor (restart backoff and
	// circuit breaker); the zero value is the supervise default.
	Policy supervise.Policy
	// CollectStamps records an append timestamp per logged interval for
	// delivery-latency benchmarks.
	CollectStamps bool
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
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 16
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

// inputEntry is one interval of the shared input log every partition
// processor consumes at its own cursor.
type inputEntry struct {
	s    int
	rets []float64
}

// inputLog is the broker's append-only record of offered return
// vectors. Keeping the whole day lets a crashed processor replay from
// any snapshot cursor — it is the broker-side analogue of the feed
// server's retained batch log.
type inputLog struct {
	mu      sync.Mutex
	entries []inputEntry
	lastS   int
	sealed  bool
}

func (l *inputLog) offer(s int, rets []float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed || (len(l.entries) > 0 && s <= l.lastS) {
		return false
	}
	l.entries = append(l.entries, inputEntry{s: s, rets: append([]float64(nil), rets...)})
	l.lastS = s
	return true
}

func (l *inputLog) get(i int) (inputEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.entries) {
		return inputEntry{}, false
	}
	return l.entries[i], true
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

// Broker owns the partitions, their supervised processors, the
// consumer groups and the serving side. Construct with New, feed it
// via OfferReturns (or core.PipelineConfig.ReturnsTap), then
// FinishInput; Serve accepts subscriber connections until Close.
type Broker struct {
	cfg   Config
	parts []*partition
	input *inputLog
	store stateStore

	ctx    context.Context
	cancel context.CancelFunc
	procWG sync.WaitGroup
	connWG sync.WaitGroup

	mu        sync.Mutex
	watch     chan struct{}
	groups    map[string]*group
	listeners map[interface{ Close() error }]struct{}
	started   bool
	closed    bool
}

// New builds a Broker. The pair universe taq.AllPairs(cfg.N) is
// partitioned by PartitionOf; every pair belongs to exactly one
// partition.
func New(cfg Config) (*Broker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	byPart := partitionPairs(cfg.N, cfg.Partitions)
	ctx, cancel := context.WithCancel(context.Background())
	b := &Broker{
		cfg:       cfg,
		input:     &inputLog{lastS: -1},
		ctx:       ctx,
		cancel:    cancel,
		watch:     make(chan struct{}),
		groups:    make(map[string]*group),
		listeners: make(map[interface{ Close() error }]struct{}),
	}
	if cfg.SnapshotDir != "" {
		b.store = &fileStore{dir: cfg.SnapshotDir}
	} else {
		b.store = &memStore{}
	}
	for i := 0; i < cfg.Partitions; i++ {
		b.parts = append(b.parts, &partition{
			id:    i,
			pairs: byPart[i],
			log:   newPartitionLog(len(byPart[i]), cfg.CollectStamps),
		})
	}
	return b, nil
}

// NumPartitions returns the partition count.
func (b *Broker) NumPartitions() int { return len(b.parts) }

// PartitionPairs returns the canonical pair ids owned by a partition
// (ascending; the caller must not mutate it).
func (b *Broker) PartitionPairs(p int) []int { return b.parts[p].pairs }

// Start launches every partition processor and the lease checker.
func (b *Broker) Start() {
	b.mu.Lock()
	if b.started || b.closed {
		b.mu.Unlock()
		return
	}
	b.started = true
	b.mu.Unlock()
	now := b.cfg.Now()
	for _, p := range b.parts {
		p.mu.Lock()
		p.renewed = now
		gen := p.gen
		p.mu.Unlock()
		b.launchProcessor(p, gen)
	}
	b.procWG.Add(1)
	go func() {
		defer b.procWG.Done()
		b.leaseLoop()
	}()
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

// FinishInput seals the input log: processors drain to the end and
// seal their partitions, after which subscribers receive End frames.
func (b *Broker) FinishInput() {
	b.input.seal()
	b.wake()
}

// Close tears the broker down: cancels processors, closes listeners
// and waits for every goroutine.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	ls := make([]interface{ Close() error }, 0, len(b.listeners))
	for l := range b.listeners {
		ls = append(ls, l)
	}
	b.mu.Unlock()
	b.cancel()
	for _, l := range ls {
		l.Close()
	}
	b.wake()
	b.procWG.Wait()
	b.connWG.Wait()
}

// wake broadcasts a state change to every waiter (processors waiting
// for input, handlers waiting for signals or epoch changes).
func (b *Broker) wake() {
	b.mu.Lock()
	close(b.watch)
	b.watch = make(chan struct{})
	b.mu.Unlock()
}

func (b *Broker) watcher() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.watch
}

// waitWake blocks until a wake, a timeout, or ctx death; false means
// ctx died.
func (b *Broker) waitWake(ctx context.Context, d time.Duration) bool {
	w := b.watcher()
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
// dies at its next lease beat without flushing anything; only lease
// expiry discovers the death and relaunches under a new generation.
func (b *Broker) KillPartition(p int) {
	pt := b.parts[p]
	pt.mu.Lock()
	pt.killed = true
	pt.mu.Unlock()
}

// launchProcessor runs one supervised processor incarnation chain for
// generation gen of partition p.
func (b *Broker) launchProcessor(p *partition, gen int) {
	b.procWG.Add(1)
	go func() {
		defer b.procWG.Done()
		name := fmt.Sprintf("broker-partition-%d", p.id)
		_, err := supervise.Run(b.ctx, name, b.cfg.Policy, func(ctx context.Context, progress func()) error {
			return b.runProcessor(ctx, p, gen, progress)
		})
		if err != nil && b.ctx.Err() == nil {
			b.cfg.Logf("broker: %s gen %d: %v", name, gen, err)
		}
	}()
}

type beat int

const (
	beatOK beat = iota
	beatKilled
	beatSuperseded
)

// leaseBeat renews partition p's lease for generation gen. A killed
// processor learns its fate here; a superseded one (lease already
// reassigned) must fall silent.
func (b *Broker) leaseBeat(p *partition, gen int) beat {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen {
		return beatSuperseded
	}
	if p.killed {
		return beatKilled
	}
	p.renewed = b.cfg.Now()
	return beatOK
}

// leaseLoop periodically expires dead processor leases and sweeps
// group members whose grace ran out.
func (b *Broker) leaseLoop() {
	t := time.NewTicker(b.cfg.LeaseEvery)
	defer t.Stop()
	for {
		select {
		case <-b.ctx.Done():
			return
		case <-t.C:
			b.CheckLeases()
			b.sweepMembers()
		}
	}
}

// CheckLeases scans for expired partition leases and relaunches their
// processors under a new generation, bumping every group epoch so
// subscribers observe the rebalance. Exported so tests (and an
// injected clock) can force a deterministic check; the lease loop
// calls it every LeaseEvery.
func (b *Broker) CheckLeases() {
	now := b.cfg.Now()
	for _, p := range b.parts {
		p.mu.Lock()
		expired := !p.done && (p.killed || now.Sub(p.renewed) > b.cfg.LeaseTTL)
		if expired {
			p.gen++
			p.killed = false
			p.renewed = now
		}
		gen := p.gen
		p.mu.Unlock()
		if expired {
			metrics.Counter("broker.rebalances").Inc()
			b.cfg.Logf("broker: partition %d lease expired; relaunching gen %d", p.id, gen)
			b.launchProcessor(p, gen)
			b.bumpEpochs()
		}
	}
}

// bumpEpochs increments every group's epoch (assignments must be
// re-announced) and wakes the handlers.
func (b *Broker) bumpEpochs() {
	b.mu.Lock()
	for _, g := range b.groups {
		g.epoch++
	}
	close(b.watch)
	b.watch = make(chan struct{})
	b.mu.Unlock()
}

// Done reports whether every partition has fully processed the sealed
// input.
func (b *Broker) Done() bool {
	if !b.input.isSealed() {
		return false
	}
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
		if b.Done() {
			return nil
		}
		if !b.waitWake(ctx, 50*time.Millisecond) {
			return ctx.Err()
		}
	}
}

// MemberCount reports the connected (alive) members across all
// consumer groups — cmd/mmbroker's serve mode gates feeding on it so
// orchestrated runs don't race subscribers joining.
func (b *Broker) MemberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.groups {
		for _, m := range g.members {
			if m.alive {
				n++
			}
		}
	}
	return n
}

// pairTable returns the canonical pair table of the broker universe.
func (b *Broker) pairTable() []taq.Pair { return taq.AllPairs(b.cfg.N) }
