package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/sched"
)

// RunConfig configures one orchestrated shard run.
type RunConfig struct {
	// Config is the sweep to decompose — the same configuration every
	// cooperating shard must be started with.
	Config backtest.Config
	// BlockSize is the pairs-per-block granularity; ≤ 0 means
	// DefaultBlockSize. All shards must agree (it is fingerprinted).
	BlockSize int
	// Shard selects this process's slice of the groups; the zero value
	// is invalid, use Shard{0, 1} for a single process.
	Shard Shard
	// JournalPath is the checkpoint journal for this shard (required).
	// The machine-readable progress manifest goes to JournalPath +
	// ".manifest".
	JournalPath string
	// Progress, when non-nil, receives periodic progress snapshots.
	Progress func(ProgressInfo)
	// ProgressEvery rate-limits Progress and manifest writes; ≤ 0
	// means every completed unit (tests) — the CLI passes ~2 s.
	ProgressEvery time.Duration
	// Limit, when > 0, stops cleanly after executing that many units
	// in this invocation (checkpoint-budgeted operation); the run
	// reports Paused and a later invocation resumes.
	Limit int
}

func (rc RunConfig) manifestPath() string { return rc.JournalPath + ".manifest" }

// ProgressInfo is one observability snapshot of a running shard.
type ProgressInfo struct {
	Shard Shard
	// Done/Total count this shard's units (Done includes
	// checkpoint-restored units).
	Done, Total int
	// SweepUnits is the whole sweep's unit count across all shards.
	SweepUnits int
	// Trades counts trades recorded by this shard so far.
	Trades int64
	// Elapsed, Rate and ETA come from the live sched.Meter: rate and
	// ETA measure only this invocation's throughput.
	Elapsed time.Duration
	Rate    float64
	ETA     time.Duration
	// WarmHitFraction is the robust estimator's warm-start hit rate so
	// far (0 when no robust window has been fitted yet).
	WarmHitFraction float64
}

// RobustSummary aggregates corr.RobustStats over every engine pass of
// one run.
type RobustSummary struct {
	Windows         int     `json:"windows"`
	WarmHits        int     `json:"warm_hits"`
	ColdStarts      int     `json:"cold_starts"`
	Fallbacks       int     `json:"fallbacks"`
	WarmHitFraction float64 `json:"warm_hit_fraction"`
	MeanIters       float64 `json:"mean_iterations"`
}

// RunStats reports what one Run invocation did.
type RunStats struct {
	Shard Shard
	// UnitsTotal is this shard's unit count; UnitsExecuted were run
	// now, UnitsSkipped were restored from the journal.
	UnitsTotal, UnitsExecuted, UnitsSkipped int
	// Trades counts trades across all of this shard's completed units
	// (restored + executed).
	Trades int64
	// Paused reports that Limit stopped the run before the shard
	// finished; the journal holds everything completed so far.
	Paused bool
	// Recovered is non-nil when a damaged journal tail was detected
	// and healed before running.
	Recovered *Corruption
	// Warm summarises the robust kernel's warm-start behaviour over
	// the units executed now.
	Warm RobustSummary
}

// Run executes this shard's share of the sweep, skipping units already
// checkpointed in the journal and appending every newly completed unit
// to it. Interrupt it at any point — kill, crash, context cancel,
// Limit — and a later Run with the same RunConfig resumes exactly
// where it stopped; the merged output is bit-identical to an
// uninterrupted single-process sweep because every unit's value is
// independent of scheduling (per-pair warm-start chains never cross
// units). Group execution itself lives in GroupRunner, the path the
// distributed farm's remote workers share.
func Run(ctx context.Context, rc RunConfig) (*RunStats, error) {
	if err := rc.Shard.Validate(); err != nil {
		return nil, err
	}
	if rc.JournalPath == "" {
		return nil, fmt.Errorf("sweep: RunConfig.JournalPath is required")
	}
	runner, err := NewGroupRunner(rc.Config, rc.BlockSize)
	if err != nil {
		return nil, err
	}
	plan := runner.Plan()
	header := PlanHeader(runner, rc.Shard)

	journal, done, recovered, err := OpenJournal(rc.JournalPath, header)
	if err != nil {
		return nil, err
	}
	defer journal.Close()

	// This shard's groups and the units still missing from its
	// journal, in ascending group id. Limit truncates the missing
	// list, which is what makes budgeted runs resumable mid-group.
	var groups [][]Unit
	shardUnits := 0
	var missingTotal int
	stats := &RunStats{Shard: rc.Shard, Recovered: recovered}
	for gid := 0; gid < plan.NumGroups(); gid++ {
		if plan.GroupOwner(gid, rc.Shard.Count) != rc.Shard.Index {
			continue
		}
		var missing []Unit
		for _, u := range plan.groupUnits(gid) {
			shardUnits++
			if n, ok := done[plan.UnitID(u)]; ok {
				stats.UnitsSkipped++
				stats.Trades += int64(n)
				continue
			}
			if rc.Limit > 0 && missingTotal >= rc.Limit {
				stats.Paused = true
				continue
			}
			missing = append(missing, u)
			missingTotal++
		}
		if len(missing) > 0 {
			groups = append(groups, missing)
		}
	}
	stats.UnitsTotal = shardUnits

	meter := sched.NewMeter(int64(shardUnits))
	meter.Skip(int64(stats.UnitsSkipped))
	var trades, executed atomic.Int64
	trades.Store(stats.Trades)

	var progressMu sync.Mutex
	var lastProgress time.Time
	emitProgress := func() {
		progressMu.Lock()
		if rc.ProgressEvery > 0 && time.Since(lastProgress) < rc.ProgressEvery {
			progressMu.Unlock()
			return
		}
		lastProgress = time.Now()
		progressMu.Unlock()

		snap := meter.Snapshot()
		ws := runner.WarmStats()
		info := ProgressInfo{
			Shard:           rc.Shard,
			Done:            int(snap.Done),
			Total:           shardUnits,
			SweepUnits:      plan.NumUnits(),
			Trades:          trades.Load(),
			Elapsed:         snap.Elapsed,
			Rate:            snap.Rate,
			ETA:             snap.ETA,
			WarmHitFraction: ws.WarmHitFraction,
		}
		if rc.Progress != nil {
			rc.Progress(info)
		}
		writeManifest(rc.manifestPath(), manifestFrom(header, info, ws, false))
	}

	err = runner.runGroups(ctx, groups, func(e Entry, unitTrades int64) error {
		if err := journal.Append(e); err != nil {
			return err
		}
		trades.Add(unitTrades)
		meter.Add(1)
		executed.Add(1)
		emitProgress()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := journal.Close(); err != nil {
		return nil, err
	}

	stats.Trades = trades.Load()
	stats.UnitsExecuted = int(executed.Load())
	stats.Warm = runner.WarmStats()
	finished := stats.UnitsSkipped+stats.UnitsExecuted == shardUnits && !stats.Paused
	snap := meter.Snapshot()
	info := ProgressInfo{
		Shard: rc.Shard, Done: int(snap.Done), Total: shardUnits,
		SweepUnits: plan.NumUnits(), Trades: stats.Trades,
		Elapsed: snap.Elapsed, Rate: snap.Rate, ETA: snap.ETA,
		WarmHitFraction: stats.Warm.WarmHitFraction,
	}
	if err := writeManifest(rc.manifestPath(), manifestFrom(header, info, stats.Warm, finished)); err != nil {
		return nil, err
	}
	if rc.Progress != nil {
		rc.Progress(info)
	}
	return stats, nil
}

func summarize(st *corr.RobustStats) RobustSummary {
	s := RobustSummary{
		Windows:    st.Windows,
		WarmHits:   st.WarmHits,
		ColdStarts: st.ColdStarts,
		Fallbacks:  st.Fallbacks,
		MeanIters:  st.MeanIters(),
	}
	if st.Windows > 0 {
		s.WarmHitFraction = float64(st.WarmHits) / float64(st.Windows)
	}
	return s
}
