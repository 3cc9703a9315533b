// Command mmbroker drives the partitioned signal broker: serve a
// synthetic day's pair signals to consumer groups, subscribe as a
// group member and print a digest of the delivered stream, or run the
// subscriber-scale fan-out benchmark.
//
// The digest a subscriber prints is an FNV-64 fold over every
// delivered signal (partition by partition, offsets, float bits and
// all), so "a faulted run delivered exactly the clean run's stream" is
// one hex comparison — scripts/broker_smoke.sh is built on it.
//
// Usage:
//
//	mmbroker -mode serve -listen :9100 -await-subs 2 -kill 1@30
//	mmbroker -mode subscribe -connect :9100 -group g -member m-0 -from-start
//	mmbroker -mode subscribe -connect :9100 -chaos seed=7,corrupt=4096,cut=32768
//	mmbroker -mode bench -subs 1000,10000 -bench-json BENCH_broker.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"marketminer/internal/broker"
	"marketminer/internal/chaos"
	"marketminer/internal/corr"
	"marketminer/internal/feed"
)

func main() {
	var (
		mode      = flag.String("mode", "serve", "serve | subscribe | bench")
		listen    = flag.String("listen", ":9100", "serve: address to listen on")
		connect   = flag.String("connect", ":9100", "subscribe: broker address")
		stocks    = flag.Int("n", 8, "universe size")
		m         = flag.Int("m", 20, "correlation window M")
		w         = flag.Int("w", 5, "C-bar moving-average window W")
		d         = flag.Float64("d", 0.01, "divergence threshold")
		ctype     = flag.String("type", "pearson", "correlation measure: pearson | maronna | combined")
		parts     = flag.Int("partitions", 4, "topic partitions")
		intervals = flag.Int("intervals", 120, "synthetic day length in return intervals")
		seed      = flag.Int64("seed", 42, "synthetic return seed")
		awaitSubs = flag.Int("await-subs", 0, "serve: wait for this many group members before feeding")
		kill      = flag.String("kill", "", "serve: hard-kill a partition processor mid-day, e.g. 1@30 (partition 1 after interval 30)")
		rate      = flag.Float64("rate", 0, "serve: pace feeding to ≈ this many intervals/sec (0 = full speed)")
		group     = flag.String("group", "g", "subscribe: consumer group")
		member    = flag.String("member", "m-0", "subscribe: member id")
		fromStart = flag.Bool("from-start", false, "subscribe: full replay instead of snapshot-on-subscribe")
		chaosF    = flag.String("chaos", "", "subscribe: fault-injection spec for the connection, e.g. seed=7,corrupt=4096,cut=32768")
		subsF     = flag.String("subs", "1000,10000", "bench: comma-separated subscriber counts")
		benchJSON = flag.String("bench-json", "", "bench: write results to this JSON file")
		quiet     = flag.Bool("quiet", false, "subscribe: print only the final digest")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ct, err := corr.ParseType(*ctype)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbroker:", err)
		os.Exit(1)
	}
	bcfg := broker.Config{
		N: *stocks, Partitions: *parts, M: *m, W: *w, D: *d, Type: ct,
	}
	switch *mode {
	case "serve":
		err = serve(ctx, bcfg, *listen, *intervals, *seed, *awaitSubs, *kill, *rate)
	case "subscribe":
		err = subscribe(ctx, *connect, *group, *member, *fromStart, *chaosF, *quiet)
	case "bench":
		err = bench(ctx, bcfg, *intervals, *seed, *subsF, *benchJSON)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbroker:", err)
		os.Exit(1)
	}
}

// synthReturns generates the deterministic synthetic day every mode
// shares: same seed, same stream, so digests compare across runs.
func synthReturns(n, T int, seed int64) [][]float64 {
	out := make([][]float64, T)
	for s := range out {
		v := make([]float64, n)
		for i := range v {
			x := float64(seed%997)*0.001 + float64(s+1)*0.31 + float64(i)*1.07
			v[i] = 0.001*math.Sin(x) + 0.0003*math.Cos(float64(s*(i+2))*0.77)
		}
		out[s] = v
	}
	return out
}

func serve(ctx context.Context, cfg broker.Config, listen string, intervals int, seed int64, awaitSubs int, killSpec string, rate float64) error {
	killPart, killAfter, err := parseKill(killSpec)
	if err != nil {
		return err
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mmbroker: "+format+"\n", args...)
	}
	b, err := broker.New(cfg)
	if err != nil {
		return err
	}
	defer b.Close()
	b.Start()
	addr, err := b.ListenAndServe(listen)
	if err != nil {
		return err
	}
	fmt.Printf("mmbroker: serving %d partitions (%d stocks, %d intervals) on %s\n",
		b.NumPartitions(), cfg.N, intervals, addr)

	if awaitSubs > 0 {
		fmt.Printf("mmbroker: waiting for %d group members\n", awaitSubs)
		for b.MemberCount() < awaitSubs {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
		}
	}

	var pace <-chan time.Time
	if rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer t.Stop()
		pace = t.C
	}
	rets := synthReturns(cfg.N, intervals, seed)
	for s, r := range rets {
		if pace != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-pace:
			}
		}
		if err := b.OfferReturns(s, r); err != nil {
			return err
		}
		if killSpec != "" && s == killAfter {
			fmt.Printf("mmbroker: hard-killing partition %d processor after interval %d\n", killPart, s)
			b.KillPartition(killPart)
		}
	}
	b.FinishInput()
	if err := b.WaitDone(ctx); err != nil {
		return err
	}
	fmt.Println("mmbroker: day complete; serving retained logs until interrupted")
	<-ctx.Done()
	return nil
}

func subscribe(ctx context.Context, connect, group, member string, fromStart bool, chaosSpec string, quiet bool) error {
	dial := feed.Dialer(connect)
	var ch *chaos.Chaos
	if chaosSpec != "" {
		spec, err := chaos.ParseSpec(chaosSpec)
		if err != nil {
			return err
		}
		ch = chaos.New(spec)
		dial = ch.Dialer(dial)
	}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, "mmbroker: "+format+"\n", args...)
		}
	}
	sub, err := broker.NewSubscriber(broker.SubscriberConfig{
		Group: group, Member: member, FromStart: fromStart,
		Dial: dial, Logf: logf,
	})
	if err != nil {
		return err
	}
	if err := sub.Run(ctx); err != nil {
		return err
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	parts := sub.Partitions()
	for _, p := range parts {
		put(uint64(p))
		for _, sg := range sub.Signals(p) {
			put(sg.Offset)
			put(uint64(sg.Pair))
			put(uint64(sg.S))
			put(uint64(sg.Kind))
			put(math.Float64bits(sg.C))
			put(math.Float64bits(sg.Cbar))
		}
	}
	st := sub.Stats()
	if !quiet {
		fmt.Printf("mmbroker: %s delivered %d signals over %d partitions (%d sessions, %d dups suppressed, %d acks)\n",
			member, st.Delivered, len(parts), st.Connects, st.Duplicates, st.Acked)
		if ch != nil {
			fmt.Printf("mmbroker: chaos injected: %+v\n", ch.Stats())
		}
	}
	fmt.Printf("%016x\n", h.Sum64())
	return nil
}

// benchFile is the committed BENCH_broker.json shape.
type benchFile struct {
	Schema     string                `json:"schema"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"numcpu"`
	Workload   string                `json:"workload"`
	Points     []*broker.BenchResult `json:"points"`
}

func bench(ctx context.Context, cfg broker.Config, intervals int, seed int64, subsF, out string) error {
	var counts []int
	for _, f := range strings.Split(subsF, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c <= 0 {
			return fmt.Errorf("bad -subs entry %q", f)
		}
		counts = append(counts, c)
	}
	sort.Ints(counts)
	file := benchFile{
		Schema:     "marketminer/bench_broker/v1",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload: fmt.Sprintf("signal fan-out, %d stocks (%d pairs), %d partitions, %d intervals, M=%d",
			cfg.N, cfg.N*(cfg.N-1)/2, cfg.Partitions, intervals, cfg.M),
	}
	for _, c := range counts {
		res, err := broker.RunBench(ctx, broker.BenchConfig{
			N: cfg.N, M: cfg.M, Partitions: cfg.Partitions, W: cfg.W, D: cfg.D,
			Intervals: intervals, Subscribers: c, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("mmbroker: %6d subscribers: %10.0f signals/sec delivered, p50 %.0fµs p99 %.0fµs (%d deliveries in %.1fms)\n",
			res.Subscribers, res.SignalsPerSec, res.DeliverP50us, res.DeliverP99us, res.Deliveries, res.DurationMS)
		file.Points = append(file.Points, res)
	}
	if out != "" {
		blob, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("mmbroker: wrote %s\n", out)
	}
	return nil
}

func parseKill(spec string) (part, after int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	lhs, rhs, ok := strings.Cut(spec, "@")
	if !ok {
		return 0, 0, fmt.Errorf("bad -kill %q, want partition@interval", spec)
	}
	if part, err = strconv.Atoi(lhs); err != nil || part < 0 {
		return 0, 0, fmt.Errorf("bad -kill partition %q", lhs)
	}
	if after, err = strconv.Atoi(rhs); err != nil || after < 0 {
		return 0, 0, fmt.Errorf("bad -kill interval %q", rhs)
	}
	return part, after, nil
}
