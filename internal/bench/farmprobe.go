package bench

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/farm"
	"marketminer/internal/sweep"
)

// farmWorkers is the worker count of the farm probe.
const farmWorkers = 2

// countingListener counts the bytes crossing every accepted connection
// in both directions.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// farmProbe runs the workload's job through a loopback farm — one
// coordinator, farmWorkers workers, one process — and reports its
// throughput against the same job through sweep.Run. The farm is a
// layer here, not a workload: it has no end-to-end metric, but its
// merged hash must match.
func farmProbe(ctx context.Context, cfg backtest.Config, dir, wantHash string, runWall time.Duration, rep *Report) error {
	path := filepath.Join(dir, "farm.journal")
	removeFarm := func() {
		removeJournal(path)
		for _, ext := range []string{".coord", ".coordhb"} {
			removeJournal(path + ext)
		}
	}
	removeFarm()
	defer removeFarm()

	coord, err := farm.NewCoordinator(farm.CoordinatorConfig{Config: cfg, JournalPath: path})
	if err != nil {
		return fmt.Errorf("bench: farm coordinator: %w", err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bench: farm listen: %w", err)
	}
	var wire atomic.Int64
	addr := inner.Addr().String()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	var wg sync.WaitGroup
	workerErrs := make([]error, farmWorkers)
	for i := 0; i < farmWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = farm.RunWorker(ctx, farm.WorkerConfig{
				Config: cfg, Name: fmt.Sprintf("bench-%d", i), Addr: addr,
				EngineWorkers: 1, // group-level parallelism only, as sweep.Run uses on this plan
			})
		}(i)
	}
	stats, err := coord.Serve(ctx, countingListener{inner, &wire}) // Serve owns and closes the listener
	wall := time.Since(t0)
	// Workers leave on the coordinator's End frame; one that missed it
	// is stopped rather than left redialling a closed listener.
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	stopped := false
	select {
	case <-workersDone:
	case <-time.After(5 * time.Second):
		stopped = true
		cancel()
		<-workersDone
	}
	if err != nil {
		return fmt.Errorf("bench: farm serve: %w", err)
	}
	for _, werr := range workerErrs {
		if werr != nil && !stopped {
			return fmt.Errorf("bench: farm worker: %w", werr)
		}
	}
	res, _, err := sweep.MergeFiles([]string{path})
	if err != nil {
		return fmt.Errorf("bench: farm merge: %w", err)
	}
	rep.Attempted += stats.UnitsTotal
	if HashResult(res) != wantHash || stats.UnitsExecuted != stats.UnitsTotal {
		rep.Failed += stats.UnitsTotal
		rep.note("farm_mismatch", "farm merged hash differs from sweep.Run")
	}
	units := float64(stats.UnitsTotal)
	rep.set("farm.loopback_units_per_s", units/wall.Seconds())
	rep.set("farm.overhead_frac", wall.Seconds()/runWall.Seconds()-1)
	rep.set("farm.wire_bytes_per_unit", float64(wire.Load())/units)
	rep.set("farm.workers_joined", float64(stats.WorkersJoined))
	return nil
}
