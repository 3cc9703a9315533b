package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/clean"
	"marketminer/internal/core"
	"marketminer/internal/corr"
	"marketminer/internal/engine"
	"marketminer/internal/feed"
	"marketminer/internal/series"
	"marketminer/internal/stats"
	"marketminer/internal/strategy"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
)

// durationsMS converts per-interval stamp pairs into millisecond
// samples, skipping intervals either stamp is missing for.
func durationsMS(from, to []time.Time) []float64 {
	var out []float64
	for s := range from {
		if !from[s].IsZero() && !to[s].IsZero() {
			out = append(out, float64(to[s].Sub(from[s]))/1e6)
		}
	}
	return out
}

// traceOnline is the traced online run: one untraced replay for
// reference, one replay with the harness's boundary stamps, then each
// inner layer timed on the same day's data.
func traceOnline(ctx context.Context, w Workload, o Options) (*Report, error) {
	stocks := o.stocks(w)
	speed := 0.0
	if w.Paced {
		speed = taq.TradingDaySec / o.Seconds
	}

	st, err := setupOnline(ctx, w, stocks, o.Seed)
	if err != nil {
		return nil, err
	}
	ref, err := st.run(speed)
	if err != nil {
		st.close()
		return nil, err
	}
	_, _, refSig, refPipe := st.check(ref)
	day := st.day
	st.close()

	counters := counterSnapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if st, err = newStack(ctx, day, true); err != nil {
		return nil, err
	}
	r, err := st.run(speed)
	if err != nil {
		st.close()
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	rep := newReport()
	var sigHash, pipeHash string
	rep.Attempted, rep.Failed, sigHash, pipeHash = st.check(r)
	if sigHash != refSig || pipeHash != refPipe {
		rep.Failed = rep.Attempted
		rep.note("hash_mismatch", "traced replay differs from the untraced one")
	}
	subStats, colStats, srvStats := st.sub.Stats(), st.col.Stats(), st.srv.Stats()
	var skew float64
	for part := range st.expect {
		skew = max(skew, float64(st.expect[part])*float64(len(st.expect))/float64(day.uni.NumPairs()))
	}
	st.close()

	// Spans from the boundary stamps: one parent per interval, its
	// stages as children.
	tr := NewTrace()
	for s, last := range r.lastSig {
		if last.IsZero() {
			continue
		}
		parent := tr.Add(s, 0, "harness.interval", r.due[s], last)
		tr.Add(s, parent, "feed.transit", r.sent[s], r.arrive[s])
		tr.Add(s, parent, "core.front", r.arrive[s], r.tapIn[s])
		tr.Add(s, parent, "broker.offer", r.tapIn[s], r.tapOut[s])
		tr.Add(s, parent, "broker.deliver", r.tapOut[s], last)
	}

	transit := durationsMS(r.sent, r.arrive)
	front := durationsMS(r.arrive, r.tapIn)
	offer := durationsMS(r.tapIn, r.tapOut)
	deliver := durationsMS(r.tapOut, r.lastSig)
	warm, lat := r.latenciesMS()
	rep.set("feed.transit_ms_p50", quantile(transit, 0.5))
	rep.set("feed.transit_ms_p99", quantile(transit, 0.99))
	rep.set("core.front_ms_p50", quantile(front, 0.5))
	rep.set("core.front_ms_p99", quantile(front, 0.99))
	rep.set("broker.offer_ms_p50", quantile(offer, 0.5))
	rep.set("broker.offer_ms_p99", quantile(offer, 0.99))
	rep.set("broker.deliver_ms_p50", quantile(deliver, 0.5))
	rep.set("broker.deliver_ms_p99", quantile(deliver, 0.99))
	rep.set("broker.fanout_signals_per_s", float64(subStats.Delivered)/r.finalSig.Sub(r.firstSig).Seconds())
	rep.set("broker.partition_skew", skew)
	rep.set("broker.delivered", float64(subStats.Delivered))
	rep.set("broker.duplicates", float64(subStats.Duplicates))
	rep.set("broker.jumps", float64(subStats.Jumps))
	rep.set("broker.reconnects", float64(subStats.Reconnects))
	rep.set("broker.acks", float64(subStats.Acked))
	rep.set("feed.evictions", float64(srvStats.Evicted))
	rep.set("feed.reconnects", float64(colStats.Reconnects))
	rep.set("feed.gaps", float64(colStats.Gaps))
	rep.set("feed.duplicates", float64(colStats.Duplicates))
	rep.set("core.matrices", float64(r.res.Matrices))
	rep.set("core.orders", float64(r.res.Orders))
	rep.set("core.trades", float64(len(r.res.Trades[0])))
	var msgs int64
	for _, ns := range r.res.NodeStats {
		msgs += ns.Received
	}
	rep.set("engine.msgs_total", float64(msgs))
	rep.set("harness.warmup_latency_ms_p50", stats.Median(warm))
	rep.set("harness.result_latency_p90_ms", quantile(lat, 0.9))
	rep.set("harness.result_latency_p99_ms", quantile(lat, 0.99))
	rep.set("harness.result_latency_max_ms", quantile(lat, 1))
	if w.Paced {
		late := durationsMS(r.due, r.sent)
		rep.set("harness.gen_late_ms_p50", quantile(late, 0.5))
		rep.set("harness.gen_late_ms_p99", quantile(late, 0.99))
		interval := float64(day.grid.DeltaS) / speed * 1e3
		n := 0
		for _, l := range lat {
			if l > interval {
				n++
			}
		}
		rep.set("harness.late_frac", float64(n)/float64(len(lat)))
	}
	rep.set("harness.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	rep.set("harness.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.set("harness.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	// The paced replay's wall is fixed by the schedule, so the tracing
	// overhead of an online replay is taken on CPU seconds.
	rep.set("harness.trace_overhead_frac", r.cpu/ref.cpu-1)
	rep.set("harness.untraced_wall_s", ref.end.Sub(ref.start).Seconds())
	rep.set("market.quotes_per_day", float64(len(day.quotes)))
	rep.set("strategy.trades", float64(len(r.res.Trades[0])))

	if err := probeLayers(ctx, day, o.work, r, rep); err != nil {
		return nil, err
	}
	rep.note("signals_hash", sigHash)
	rep.note("pipeline_hash", pipeHash)
	if err := tr.WriteJSONL(filepath.Join(o.Dir, "trace_"+w.Name+".jsonl"), counterDelta(counters)); err != nil {
		return nil, err
	}
	return rep, nil
}

// probeLayers times the inner layers of the online path on the
// replayed day's own data, one call sequence per layer.
func probeLayers(ctx context.Context, day *onlineDay, dir string, r *replay, rep *Report) error {
	quotes := day.quotes
	nq := float64(len(quotes))

	t0 := time.Now()
	if _, err := day.gen.GenerateDay(0); err != nil {
		return fmt.Errorf("bench: probe generate: %w", err)
	}
	rep.set("market.generate_day_s", time.Since(t0).Seconds())

	// clean: Filter.Accept per quote.
	filter := clean.NewFilter(clean.Config{})
	cleaned := make([]taq.Quote, 0, len(quotes))
	t0 = time.Now()
	for _, q := range quotes {
		if filter.Accept(q) == clean.OK {
			cleaned = append(cleaned, q)
		}
	}
	rep.set("clean.accept_ns_per_quote", float64(time.Since(t0).Nanoseconds())/nq)
	rep.set("clean.reject_frac", float64(filter.TotalRejected())/nq)

	// series: one BarAccumulator per symbol, as the bar node keeps.
	bars := make([]*series.BarAccumulator, day.uni.Len())
	for i := range bars {
		bars[i] = series.NewBarAccumulator(day.grid, day.uni.Symbol(i), 0)
	}
	t0 = time.Now()
	for _, q := range cleaned {
		if i, ok := day.uni.Index(q.Symbol); ok {
			bars[i].Add(q)
		}
	}
	rep.set("series.bar_ns_per_quote", float64(time.Since(t0).Nanoseconds())/float64(len(cleaned)))

	// feed: encode the day in server-sized batches into memory, decode
	// it back.
	const batchSize = 256 // feed.ServerConfig's default
	var wire bytes.Buffer
	enc := feed.NewEncoder(&wire, day.uni)
	if err := enc.WriteHello(&feed.Hello{Version: feed.ProtocolVersion, Symbols: day.uni.Symbols()}); err != nil {
		return fmt.Errorf("bench: probe encode: %w", err)
	}
	hello := wire.Len()
	t0 = time.Now()
	seq := uint64(0)
	for lo := 0; lo < len(quotes); lo += batchSize {
		seq++
		if err := enc.WriteBatch(&feed.Batch{Seq: seq, Quotes: quotes[lo:min(lo+batchSize, len(quotes))]}); err != nil {
			return fmt.Errorf("bench: probe encode: %w", err)
		}
	}
	rep.set("feed.encode_ns_per_quote", float64(time.Since(t0).Nanoseconds())/nq)
	rep.set("feed.wire_bytes_per_quote", float64(wire.Len()-hello)/nq)
	dec := feed.NewDecoder(&wire)
	if _, err := dec.Read(); err != nil {
		return fmt.Errorf("bench: probe decode hello: %w", err)
	}
	t0 = time.Now()
	for i := uint64(0); i < seq; i++ {
		if _, err := dec.Read(); err != nil {
			return fmt.Errorf("bench: probe decode: %w", err)
		}
	}
	rep.set("feed.decode_ns_per_quote", float64(time.Since(t0).Nanoseconds())/nq)

	// engine: a 3-node pass-through graph, one channel hop per edge.
	const hopMsgs = 1 << 16
	g := engine.NewGraph()
	pass := func(ctx context.Context, m engine.Message, emit engine.Emit) error { emit(m); return nil }
	src := g.Source("src", func(ctx context.Context, emit engine.Emit) error {
		for i := 0; i < hopMsgs; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	a := g.Node("a", 1, pass)
	b := g.Node("b", 1, pass)
	c := g.Node("c", 1, func(context.Context, engine.Message, engine.Emit) error { return nil })
	g.Connect(src, a, 256)
	g.Connect(a, b, 256)
	g.Connect(b, c, 256)
	t0 = time.Now()
	if err := g.Run(ctx); err != nil {
		return fmt.Errorf("bench: probe graph: %w", err)
	}
	rep.set("engine.hop_ns_per_msg", float64(time.Since(t0).Nanoseconds())/(3*hopMsgs))

	// core: the whole pipeline on an in-memory day, no network, no broker.
	t0 = time.Now()
	if _, err := core.RunPipeline(ctx, core.PipelineConfig{Universe: day.uni, Params: []strategy.Params{day.params}}, quotes, 0); err != nil {
		return fmt.Errorf("bench: probe pipeline: %w", err)
	}
	rep.set("core.pipeline_quotes_per_s", nq/time.Since(t0).Seconds())

	// corr: OnlineEngine.Push over the day's return vectors, configured
	// as the pipeline configures its engine.
	prep, err := prepareDay(backtest.Config{Market: day.gen.Config()}, day.gen, 0, nil, 0)
	if err != nil {
		return err
	}
	T := len(prep.dd.Returns[0])
	vectors := make([][]float64, T)
	for u := range vectors {
		v := make([]float64, day.uni.Len())
		for i := range v {
			v[i] = prep.dd.Returns[i][u]
		}
		vectors[u] = v
	}
	p := day.params
	eng, err := corr.NewOnlineEngine(corr.EngineConfig{Type: p.Ctype, M: p.M}, day.uni.Len())
	if err != nil {
		return fmt.Errorf("bench: probe engine: %w", err)
	}
	var push []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cpuSeconds()
	for _, v := range vectors {
		t0 = time.Now()
		m, err := eng.Push(v)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("bench: probe push: %w", err)
		}
		if m != nil {
			push = append(push, float64(d)/1e6)
		}
	}
	pushCPU := cpuSeconds() - c0
	runtime.ReadMemStats(&ms1)
	// The pipeline's engine fits every pair once per interval and the
	// partitions' engines together fit every pair once more.
	rep.set("corr.online_cpu_share", 2*pushCPU/r.cpu)
	if p.Ctype == corr.Pearson {
		rep.set("corr.online_push_pearson_ms_p50", quantile(push, 0.5))
	} else {
		rep.set("corr.online_push_ms_p50", quantile(push, 0.5))
		rep.set("corr.online_push_ms_p99", quantile(push, 0.99))
		rep.set("corr.online_allocs_per_push", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(vectors)))

		// The state a partition processor saves every 16 intervals.
		const saves = 8
		var snapMS, saveMS []float64
		var snap *corr.EngineSnapshot
		path := filepath.Join(dir, "probe.snapshot")
		defer os.Remove(path)
		for i := 0; i < saves; i++ {
			t0 = time.Now()
			snap = eng.Snapshot()
			snapMS = append(snapMS, float64(time.Since(t0))/1e6)
			t0 = time.Now()
			if err := supervise.SaveSnapshot(path, eng.Fingerprint(), snap); err != nil {
				return fmt.Errorf("bench: probe snapshot: %w", err)
			}
			saveMS = append(saveMS, float64(time.Since(t0))/1e6)
		}
		blob, err := json.Marshal(snap)
		if err != nil {
			return fmt.Errorf("bench: probe snapshot: %w", err)
		}
		rep.set("corr.snapshot_ms", stats.Median(snapMS))
		rep.set("corr.snapshot_bytes", float64(len(blob)))
		rep.set("supervise.snapshot_save_ms", stats.Median(saveMS))
		if fi, err := os.Stat(path); err == nil {
			rep.set("supervise.snapshot_bytes", float64(fi.Size()))
		}
	}

	// strategy: every pair's tracker stepped over a Pearson series of
	// the day, as the strategy node steps it per matrix.
	cs, err := corr.ComputeSeries(corr.EngineConfig{Type: corr.Pearson, M: p.M}, prep.dd.Returns)
	if err != nil {
		return fmt.Errorf("bench: probe series: %w", err)
	}
	pairs := taq.AllPairs(day.uni.Len())
	steps := 0
	t0 = time.Now()
	for id, pr := range pairs {
		if _, err := strategy.RunDay(p, cs.Corr[id], cs.FirstS, prep.dd.PG, pr.I, pr.J, 0); err != nil {
			return fmt.Errorf("bench: probe strategy: %w", err)
		}
		steps += len(cs.Corr[id]) - p.W + 1
	}
	rep.set("strategy.step_ns", float64(time.Since(t0).Nanoseconds())/float64(steps))
	return nil
}
