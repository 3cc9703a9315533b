package bench

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"marketminer/internal/broker"
	"marketminer/internal/core"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/series"
	"marketminer/internal/stats"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// brokerPartitions is the topic-partition count of the online stack.
const brokerPartitions = 2

// stackTimeout bounds bringing a stack up and draining it.
const stackTimeout = 60 * time.Second

// onlineDay is the replayed day and the harness's index of it.
type onlineDay struct {
	uni      *taq.Universe
	gen      *market.Generator
	quotes   []taq.Quote
	seqTimes []float64
	grid     series.Grid
	closing  []int // per interval: index of its closing quote
	params   strategy.Params
}

// generateOnlineDay makes the workload's day from the seed and indexes
// its closing quotes.
func generateOnlineDay(w Workload, stocks int, seed int64) (*onlineDay, error) {
	mc, err := marketConfig(stocks, seed)
	if err != nil {
		return nil, err
	}
	uni := mc.Universe
	gen, err := market.NewGenerator(mc)
	if err != nil {
		return nil, fmt.Errorf("bench: generator: %w", err)
	}
	md, err := gen.GenerateDay(0)
	if err != nil {
		return nil, fmt.Errorf("bench: generate day: %w", err)
	}
	params := strategy.DefaultParams().WithType(w.Types[0])
	grid, err := series.NewGrid(params.DeltaS)
	if err != nil {
		return nil, err
	}
	d := &onlineDay{uni: uni, gen: gen, quotes: md.Quotes, grid: grid, params: params}
	d.seqTimes = make([]float64, len(md.Quotes))
	for i, q := range md.Quotes {
		d.seqTimes[i] = q.SeqTime
	}
	d.closing = closingQuotes(grid, md.Quotes)
	return d, nil
}

// stack is one fresh instance of the online topology: feed.Server →
// loopback TCP → feed.Collector → core.RunPipelineSource (ReturnsTap →
// broker.OfferReturns) → broker (brokerPartitions partitions) →
// loopback TCP → one broker.Subscriber.
type stack struct {
	day *onlineDay
	srv *feed.Server
	col *feed.Collector
	bk  *broker.Broker
	sub *broker.Subscriber

	ctx     context.Context // cancelled by close; owns the stack's goroutines
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	subErr  error
	subDone chan struct{}

	expect []int32       // per partition: signals per interval (its pair count)
	count  [][]int32     // per partition, per interval: signals seen
	last   [][]time.Time // per partition, per interval: the signal that completed it
	traced bool          // stamp the boundaries inside the pipeline too
}

// newStack brings the topology up: both listeners accepting, the
// subscriber joined to its group, the collector through its handshake.
func newStack(ctx context.Context, day *onlineDay, traced bool) (*stack, error) {
	st := &stack{day: day, traced: traced, subDone: make(chan struct{})}
	st.ctx, st.cancel = context.WithCancel(ctx)
	ctx = st.ctx
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()

	var err error
	if st.srv, err = feed.NewServer(feed.ServerConfig{Universe: day.uni}); err != nil {
		return nil, fmt.Errorf("bench: feed server: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: feed listen: %w", err)
	}
	st.wg.Add(1)
	go func() { defer st.wg.Done(); st.srv.Serve(l) }()

	p := day.params
	st.bk, err = broker.New(broker.Config{
		N: day.uni.Len(), Partitions: brokerPartitions, M: p.M, W: p.W, D: p.D, Type: p.Ctype,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: broker: %w", err)
	}
	st.bk.Start()
	baddr, err := st.bk.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: broker listen: %w", err)
	}

	nparts := st.bk.NumPartitions()
	st.expect = make([]int32, nparts)
	st.count = make([][]int32, nparts)
	st.last = make([][]time.Time, nparts)
	for part := 0; part < nparts; part++ {
		st.expect[part] = int32(len(st.bk.PartitionPairs(part)))
		st.count[part] = make([]int32, day.grid.SMax)
		st.last[part] = make([]time.Time, day.grid.SMax)
	}
	st.sub, err = broker.NewSubscriber(broker.SubscriberConfig{
		Group: "bench", Member: "bench-0", FromStart: true,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", baddr.String())
		},
		OnSignal: st.onSignal,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: subscriber: %w", err)
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer close(st.subDone)
		st.subErr = st.sub.Run(ctx)
	}()

	st.col = feed.NewCollector(feed.CollectorConfig{Addr: l.Addr().String()})
	st.wg.Add(1)
	// A collector that gives up closes its channel early; the replay's
	// delivery check then counts what is missing.
	go func() { defer st.wg.Done(); st.col.Run(ctx) }()

	upCtx, cancelUp := context.WithTimeout(ctx, stackTimeout)
	defer cancelUp()
	if _, err := st.col.Universe(upCtx); err != nil {
		return nil, fmt.Errorf("bench: collector handshake: %w", err)
	}
	for st.bk.MemberCount() < 1 {
		select {
		case <-upCtx.Done():
			return nil, fmt.Errorf("bench: subscriber did not join: %w", upCtx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	ok = true
	return st, nil
}

// onSignal runs on the subscriber's goroutine for every delivered
// signal: it counts the signal against its (partition, interval) and
// stamps the one that completes the interval.
func (st *stack) onSignal(part int, sig feed.Signal) {
	s := int(sig.S)
	if part >= len(st.count) || s >= len(st.count[part]) {
		return // counted as missing by the check
	}
	st.count[part][s]++
	if st.count[part][s] == st.expect[part] {
		st.last[part][s] = time.Now()
	}
}

// close tears the stack down and waits for every goroutine it started.
func (st *stack) close() {
	st.cancel()
	if st.srv != nil {
		// Finish first: an idle subscriber handler otherwise sits out its
		// heartbeat period (1 s) before Close can join it.
		st.srv.Finish()
		st.srv.Close()
	}
	if st.bk != nil {
		st.bk.Close()
	}
	st.wg.Wait()
}

// replay is what one day through a stack produced.
type replay struct {
	res      *core.PipelineResult
	start    time.Time   // first Publish
	end      time.Time   // the subscriber's End
	cpu      float64     // user+sys over [start, end]
	due      []time.Time // per interval: when its closing quote was due
	sent     []time.Time // per interval: when its closing quote was sent
	lastSig  []time.Time // per interval: its last signal over all partitions (zero = none)
	firstSig time.Time   // first and last signal overall
	finalSig time.Time

	// Boundary stamps of the traced replay, per interval.
	arrive, tapIn, tapOut []time.Time
}

// run replays the day through the stack: paced open loop at the given
// speed (market seconds per wall second), or the whole day at once
// when speed is 0.
func (st *stack) run(speed float64) (*replay, error) {
	ctx, day := st.ctx, st.day
	r := &replay{}
	nS := day.grid.SMax
	if st.traced {
		r.arrive = make([]time.Time, nS)
		r.tapIn = make([]time.Time, nS)
		r.tapOut = make([]time.Time, nS)
	}

	source := core.ChannelSource(st.col.Quotes())
	tap := st.bk.OfferReturns
	if st.traced {
		// The two boundaries the harness owns inside the pipeline: quotes
		// leaving the collector, and the TA stage's tap.
		inner := source
		source = func(ctx context.Context, emit func(taq.Quote) bool) error {
			n, s := 0, 0
			return inner(ctx, func(q taq.Quote) bool {
				if s < nS && n == day.closing[s] {
					now := time.Now()
					for ; s < nS && day.closing[s] == n; s++ {
						r.arrive[s] = now
					}
				}
				n++
				return emit(q)
			})
		}
		tap = func(s int, rets []float64) error {
			r.tapIn[s] = time.Now()
			err := st.bk.OfferReturns(s, rets)
			r.tapOut[s] = time.Now()
			return err
		}
	}

	type pipeOut struct {
		res *core.PipelineResult
		err error
	}
	pipeCh := make(chan pipeOut, 1)
	go func() {
		res, err := core.RunPipelineSource(ctx, core.PipelineConfig{
			Universe:   day.uni,
			Params:     []strategy.Params{day.params},
			ReturnsTap: tap,
		}, source, 0)
		pipeCh <- pipeOut{res, err}
	}()

	c0 := cpuSeconds()
	r.start = time.Now()
	r.due = make([]time.Time, nS)
	if speed > 0 {
		sch := schedule{start: r.start, speed: speed}
		r.sent = paceOpenLoop(wallClock{}, sch, paceTick, day.seqTimes, day.closing, func(lo, hi int) {
			st.srv.PublishBatch(day.quotes[lo:hi])
			st.srv.Flush()
		})
		for s := range r.due {
			if c := day.closing[s]; c < len(day.quotes) {
				r.due[s] = sch.due(day.seqTimes[c])
			} else {
				r.due[s] = sch.due(taq.TradingDaySec)
			}
		}
	} else {
		// Unpaced: everything is due, and sent, when the day is handed
		// over.
		st.srv.PublishBatch(day.quotes)
		r.sent = make([]time.Time, nS)
		for s := range r.due {
			r.due[s], r.sent[s] = r.start, r.start
		}
	}
	st.srv.Finish()

	var out pipeOut
	select {
	case out = <-pipeCh:
	case <-time.After(stackTimeout):
		return nil, fmt.Errorf("bench: pipeline did not drain")
	}
	if out.err != nil {
		return nil, fmt.Errorf("bench: pipeline: %w", out.err)
	}
	r.res = out.res
	st.bk.FinishInput()
	select {
	case <-st.subDone:
	case <-time.After(stackTimeout):
		return nil, fmt.Errorf("bench: subscriber did not reach End")
	}
	r.end = time.Now()
	r.cpu = cpuSeconds() - c0
	if st.subErr != nil {
		return nil, fmt.Errorf("bench: subscriber: %w", st.subErr)
	}

	r.lastSig = make([]time.Time, nS)
	for part := range st.last {
		for s, t := range st.last[part] {
			if t.After(r.lastSig[s]) {
				r.lastSig[s] = t
			}
			if t.IsZero() {
				continue
			}
			if r.firstSig.IsZero() || t.Before(r.firstSig) {
				r.firstSig = t
			}
			if t.After(r.finalSig) {
				r.finalSig = t
			}
		}
	}
	return r, nil
}

// warmIntervals is how many of a replay's first signal-bearing
// intervals the latency samples leave out: the first matrix fits every
// pair from a cold start (10+ iterations instead of 1-3) in all three
// engines at once, and the backlog that leaves takes tens of intervals
// to drain. A day pays it once, at its first matrix; it is reported as
// harness.warmup_latency_ms_p50, not mixed into the steady samples.
const warmIntervals = 100

// latenciesMS returns, for every interval that produced signals, last
// signal minus due time of the closing quote, in milliseconds, split
// into the first warmIntervals of them and the rest.
func (r *replay) latenciesMS() (warm, steady []float64) {
	for s, t := range r.lastSig {
		if t.IsZero() {
			continue
		}
		ms := float64(t.Sub(r.due[s])) / 1e6
		if len(warm) < warmIntervals {
			warm = append(warm, ms)
		} else {
			steady = append(steady, ms)
		}
	}
	return warm, steady
}

// check applies the delivery invariants of one replay and returns
// attempted and failed (interval, partition) deliveries plus the
// delivered-stream and pipeline hashes.
func (st *stack) check(r *replay) (attempted, failed int, sigHash, pipeHash string) {
	stats := st.sub.Stats()
	pairs := st.day.uni.NumPairs()
	h := newHasher()
	for part := range st.count {
		sigs := st.sub.Signals(part)
		h.signals(part, sigs)
		dense := true
		for i, sg := range sigs {
			if sg.Offset != uint64(i+1) {
				dense = false
				break
			}
		}
		complete := 0
		for _, n := range st.count[part] {
			if n == st.expect[part] {
				complete++
			}
		}
		attempted += r.res.Matrices
		switch {
		case !dense:
			failed += r.res.Matrices
		case complete < r.res.Matrices:
			failed += r.res.Matrices - complete // missing or short intervals
		}
	}
	if stats.Delivered != pairs*r.res.Matrices || stats.Duplicates != 0 || stats.Jumps != 0 || !r.res.BookFlat {
		failed = attempted
	}
	return attempted, failed, h.sum(), hashPipeline(r.res)
}

// setupOnline is one online set-up: generate and index the day, bring
// a stack up.
func setupOnline(ctx context.Context, w Workload, stocks int, seed int64) (*stack, error) {
	day, err := generateOnlineDay(w, stocks, seed)
	if err != nil {
		return nil, err
	}
	return newStack(ctx, day, false)
}

// runOnline is the untraced online run.
func runOnline(ctx context.Context, w Workload, o Options) (*Report, error) {
	stocks := o.stocks(w)
	var st *stack
	setups := make([]float64, 0, SetupRepeats)
	for i := 0; i < SetupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = setupOnline(ctx, w, stocks, o.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { st.close() }()
	day := st.day

	// online_paced replays the day once, in exactly the run length;
	// online_saturate starts fresh-stack replays while the next is
	// expected to end inside it.
	speed := 0.0
	if w.Paced {
		speed = taq.TradingDaySec / o.Seconds
	}
	rep := newReport()
	var tput, qps, lat, rss []float64
	var cpu float64
	var sigHash, pipeHash string
	replays, mismatch := 0, false
	budget := time.Duration(o.Seconds * float64(time.Second))
	began := time.Now()
	for {
		freshPeakRSS() // earlier set-ups and replays are not this replay's footprint
		r, err := st.run(speed)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		attempted, failed, sh, ph := st.check(r)
		if replays == 0 {
			sigHash, pipeHash = sh, ph
			rep.Entry = GoldenEntry{Stocks: stocks, SignalsHash: sh, PipelineHash: ph, Delivered: st.sub.Stats().Delivered, Matrices: r.res.Matrices}
			if g, ok := o.golden(w, stocks); ok {
				rep.note("golden", "checked")
				mismatch = rep.Entry != g
			}
			rep.note("delivered", fmt.Sprint(rep.Entry.Delivered))
			rep.note("matrices", fmt.Sprint(rep.Entry.Matrices))
		} else if sh != sigHash || ph != pipeHash {
			mismatch = true // replays of one day must agree
		}
		rep.Attempted += attempted
		rep.Failed += failed
		wall := r.end.Sub(r.start).Seconds()
		tput = append(tput, float64(day.uni.NumPairs())/wall)
		qps = append(qps, float64(len(day.quotes))/wall)
		_, steady := r.latenciesMS()
		lat = append(lat, steady...)
		cpu += r.cpu
		replays++
		if w.Paced || time.Since(began)+r.end.Sub(r.start) > budget {
			break
		}
		st.close()
		if st, err = newStack(ctx, day, false); err != nil {
			return nil, err
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("bench: %s delivered no signals past the warm-up", w.Name)
	}
	if mismatch {
		rep.Failed = rep.Attempted // any hash mismatch fails the run outright
	}
	rep.set("setup_s", stats.Median(setups))
	rep.set("pair_param_days_per_s", stats.Median(tput))
	rep.set("quotes_per_s", stats.Median(qps))
	rep.set("result_latency_p50_ms", stats.Median(lat))
	rep.set("cpu_us_per_pair_param_day", cpu/float64(day.uni.NumPairs()*replays)*1e6)
	rep.set("peak_rss_mb", slices.Min(rss))
	rep.note("signals_hash", sigHash)
	rep.note("pipeline_hash", pipeHash)
	rep.note("replays", fmt.Sprint(replays))
	rep.note("quotes_per_day", fmt.Sprint(len(day.quotes)))
	rep.note("latency_samples", fmt.Sprint(len(lat)))
	rep.note("highest_supported_percentile", fmt.Sprint(HighestSupportedPercentile(len(lat))))
	return rep, nil
}
