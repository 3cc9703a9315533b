package core_test

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"marketminer/internal/chaos"
	"marketminer/internal/core"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// pinnedSupervisedDigest is the digest of supervisedDayDigest's two
// runs. It holds the trades and every stage's
// Processed/Panics/Quarantined/Skipped and the Snapshots count, so it
// moves if the supervision runtime forwards, counts or persists
// anything differently.
const pinnedSupervisedDigest = "0dbf042fe65df255"

// poisonDay is the test day with poison quotes spliced in. A quote
// whose bid and ask are both math.MaxFloat64 is structurally valid,
// but its mid overflows to +Inf. The first one follows the first quote
// of A1, inside the filter's warm-up, so it is accepted and leaves the
// symbol's level estimate NaN, which lets the later ones through too.
// Each later one follows the last A1 quote of a mid-day interval. A
// poison quote makes the return vectors on either side of its interval
// non-finite, and the correlation stage quarantines those intervals.
func poisonDay(quotes []taq.Quote, deltaS int) []taq.Quote {
	const sym = "A1"
	interval := func(q taq.Quote) int { return int(q.SeqTime) / deltaS }
	poisoned := map[int]bool{300: true, 450: true, 600: true}
	first := true
	var out []taq.Quote
	for i, q := range quotes {
		out = append(out, q)
		if q.Symbol != sym {
			continue
		}
		next := i + 1
		for next < len(quotes) && quotes[next].Symbol != sym {
			next++
		}
		last := next == len(quotes) || interval(quotes[next]) != interval(q)
		if first || (last && poisoned[interval(q)]) {
			p := q
			p.Bid, p.Ask = math.MaxFloat64, math.MaxFloat64
			out = append(out, p)
		}
		first = false
	}
	return out
}

// supervisedDayDigest runs the poisoned test day twice through a
// chaotic source under supervision, with an engine snapshot and a
// quarantine file. The second run resumes from the first run's
// snapshot and skips the intervals it quarantined.
func supervisedDayDigest(t *testing.T) (string, []*core.SupervisionReport) {
	u, quotes, params := core.DayForTest(t)
	quotes = poisonDay(quotes, params.DeltaS)
	dir := t.TempDir()
	opts := &core.SuperviseOptions{
		SnapshotPath:   filepath.Join(dir, "engine.snap"),
		SnapshotEvery:  40,
		QuarantinePath: filepath.Join(dir, "poison.quar"),
	}
	spec := chaos.Spec{Seed: 5, DropRate: 0.01, DupRate: 0.01, ReorderRate: 0.02}
	h := fnv.New64a()
	var reps []*core.SupervisionReport
	for run := 0; run < 2; run++ {
		cfg := core.PipelineConfig{Universe: u, Params: []strategy.Params{params}, Supervise: opts}
		res, err := core.RunPipelineSource(context.Background(), cfg, chaos.New(spec).Source(core.SliceSource(quotes)), 0)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		digestSupervisedRun(h, res)
		reps = append(reps, res.Supervision)
	}
	return fmt.Sprintf("%016x", h.Sum64()), reps
}

func digestSupervisedRun(h hash.Hash64, res *core.PipelineResult) {
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, trades := range res.Trades {
		put(uint64(len(trades)))
		for _, tr := range trades {
			put(uint64(tr.Day), uint64(tr.PairI), uint64(tr.PairJ), uint64(tr.EntryS), uint64(tr.ExitS),
				uint64(tr.LongStock), uint64(tr.ShortStock), uint64(tr.LongSh), uint64(tr.ShortSh), uint64(tr.Reason))
			for _, v := range []float64{tr.LongEntry, tr.ShortEntry, tr.LongExit, tr.ShortExit, tr.PnL, tr.Return} {
				put(math.Float64bits(v))
			}
		}
	}
	sup := res.Supervision
	for _, st := range sup.Stages {
		h.Write([]byte(st.Name))
		put(uint64(st.Processed), uint64(st.Panics), uint64(st.Quarantined), uint64(st.Skipped))
	}
	put(uint64(sup.Snapshots))
}

// TestSupervisedChaoticDayMatchesParentDigest pins a supervised day
// with chaos, poison quotes, a snapshot and a quarantine file. The
// digest is only meaningful if every path it claims to cover was
// taken, so that is checked first.
func TestSupervisedChaoticDayMatchesParentDigest(t *testing.T) {
	got, reps := supervisedDayDigest(t)
	first, second := reps[0], reps[1]
	var panics, quarantined, skipped int64
	for _, st := range first.Stages {
		panics += st.Panics
		quarantined += st.Quarantined
	}
	for _, st := range second.Stages {
		skipped += st.Skipped
	}
	if panics == 0 || quarantined == 0 || first.Snapshots == 0 {
		t.Fatalf("first run took no fault path: %d panics, %d quarantined, %d snapshots", panics, quarantined, first.Snapshots)
	}
	if !second.Resumed || skipped == 0 {
		t.Fatalf("second run did not resume and skip: resumed %v, %d skipped", second.Resumed, skipped)
	}
	if got != pinnedSupervisedDigest {
		t.Errorf("supervised day digest = %s, want %s", got, pinnedSupervisedDigest)
		for i, r := range reps {
			t.Logf("run %d: %+v", i, *r)
		}
	}
}
