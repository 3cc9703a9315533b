package broker

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// BenchConfig sizes a subscriber-scale fan-out benchmark.
type BenchConfig struct {
	// N, M, Partitions, W, D configure the broker under test.
	N, M, Partitions int
	W                int
	D                float64
	// Intervals is the synthetic day length in return vectors.
	Intervals int
	// Subscribers is the number of simulated in-process followers; each
	// follows one partition (round-robin), the way a horizontally
	// scaled consumer fleet shards the signal space.
	Subscribers int
	// Seed drives the synthetic return stream.
	Seed int64
}

// BenchResult is one benchmark point: sustained fan-out throughput and
// the delivery-latency distribution (publish → follower observation).
type BenchResult struct {
	Subscribers   int     `json:"subscribers"`
	Partitions    int     `json:"partitions"`
	Pairs         int     `json:"pairs"`
	Signals       int     `json:"signals"`         // unique signals published
	Deliveries    int64   `json:"deliveries"`      // signal deliveries across all followers
	DurationMS    float64 `json:"duration_ms"`     // feed start → last follower drained
	SignalsPerSec float64 `json:"signals_per_sec"` // deliveries / duration
	DeliverP50us  float64 `json:"deliver_p50_us"`
	DeliverP99us  float64 `json:"deliver_p99_us"`
}

// benchReturns is a synthetic return stream: smooth deterministic
// cross-sections, no allocation surprises.
func benchReturns(n, T int, seed int64) [][]float64 {
	out := make([][]float64, T)
	for s := range out {
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.001*math.Sin(float64(seed)+float64(s+1)*0.31+float64(i)*1.07) +
				0.0003*math.Cos(float64(s*(i+2))*0.77)
		}
		out[s] = v
	}
	return out
}

// RunBench measures snapshot+delta fan-out at cfg.Subscribers
// in-process followers. Followers read the partition logs through the
// same read/wake path the wire handlers use, so the measured contention
// (log mutex, watch-channel broadcast) is the serving path's — only
// the socket is elided, which is what makes 10k subscribers in one
// process honest rather than an OS file-descriptor benchmark.
func RunBench(ctx context.Context, cfg BenchConfig) (*BenchResult, error) {
	if cfg.Subscribers <= 0 {
		return nil, fmt.Errorf("broker: bench needs subscribers > 0")
	}
	if cfg.Intervals <= cfg.M {
		return nil, fmt.Errorf("broker: bench needs intervals > M")
	}
	b, err := New(Config{
		N:             cfg.N,
		Partitions:    cfg.Partitions,
		M:             cfg.M,
		W:             cfg.W,
		D:             cfg.D,
		CollectStamps: true,
	})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	b.Start()

	var deliveries atomic.Int64
	// Every follower samples one latency per read (at most one logged
	// interval) — bounded memory at any scale while still populating
	// the tail of the distribution.
	samples := make([][]int64, cfg.Subscribers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		part := b.parts[i%len(b.parts)]
		spawn(&wg, func() {
			var next uint64 = 1
			for {
				w := b.watcher()
				iv, drained := part.log.read(next, 4096)
				if iv.Len() > 0 {
					now := time.Now().UnixNano()
					if st := part.log.stampAt(iv.End()); st > 0 {
						samples[i] = append(samples[i], now-st)
					}
					deliveries.Add(int64(iv.Len()))
					next = iv.End() + 1
					continue
				}
				if drained {
					return
				}
				if !b.wait(ctx, w, 10*time.Millisecond) {
					return
				}
			}
		})
	}

	rets := benchReturns(cfg.N, cfg.Intervals, cfg.Seed)
	start := time.Now()
	for s, r := range rets {
		if err := b.OfferReturns(s, r); err != nil {
			return nil, err
		}
	}
	b.FinishInput()
	if err := b.WaitDone(ctx); err != nil {
		return nil, err
	}
	wg.Wait()
	elapsed := time.Since(start)

	signals := 0
	for _, p := range b.parts {
		signals += int(p.log.end())
	}
	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &BenchResult{
		Subscribers:   cfg.Subscribers,
		Partitions:    len(b.parts),
		Pairs:         cfg.N * (cfg.N - 1) / 2,
		Signals:       signals,
		Deliveries:    deliveries.Load(),
		DurationMS:    float64(elapsed.Nanoseconds()) / 1e6,
		SignalsPerSec: float64(deliveries.Load()) / elapsed.Seconds(),
		DeliverP50us:  percentileNanos(all, 0.50) / 1e3,
		DeliverP99us:  percentileNanos(all, 0.99) / 1e3,
	}
	return res, nil
}

func percentileNanos(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx])
}
