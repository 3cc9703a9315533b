package sweep

import (
	"fmt"
	"io"
	"sort"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/metrics"
	"marketminer/internal/taq"
)

// MergeReport describes what MergeFiles combined.
type MergeReport struct {
	// Files is the number of journals read; ShardCount is the sweep's
	// shard width n.
	Files, ShardCount int
	// Units and UnitsTotal count distinct completed units vs the
	// sweep's full decomposition.
	Units, UnitsTotal int
	// Duplicates counts entries that re-recorded an already-seen unit
	// (e.g. the same shard journal passed twice); the last occurrence
	// wins, and because units are deterministic duplicates are always
	// bit-identical.
	Duplicates int
	// Corrupt lists healed-tail reports of damaged journals; the units
	// a damaged tail held are missing, so a corrupt journal usually
	// also implies an incomplete merge until its shard is re-run.
	Corrupt []*Corruption
}

// MergeFiles combines per-shard journals into the full sweep Result —
// the dataset Tables III–V and Figure 2 are computed from. The
// journals must all come from the same sweep (identical configuration
// fingerprints) and together cover every unit; partial coverage is an
// error naming the missing shard indexes, because a silently
// incomplete Result would bias every aggregate.
//
// Merging is pure assembly — no recomputation — so merged output is
// bit-identical to a single-process backtest.Run of the same
// configuration.
func MergeFiles(paths []string) (*backtest.Result, *MergeReport, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("sweep: no journals to merge")
	}
	rep := &MergeReport{Files: len(paths)}
	var (
		ref  Header
		plan *Plan
		res  *backtest.Result
		seen []bool
	)
	for _, p := range paths {
		r, err := OpenJournalReader(p)
		if err != nil {
			return nil, nil, err
		}
		h := r.Header
		switch {
		case plan == nil:
			ref = h
			plan, res, err = newMergeTarget(h)
			rep.ShardCount = h.ShardCount
			rep.UnitsTotal = h.UnitsTotal
			seen = make([]bool, h.UnitsTotal)
		case h.Fingerprint != ref.Fingerprint || h.UnitsTotal != ref.UnitsTotal:
			err = fmt.Errorf("sweep: %s records a different sweep (fingerprint %s) than %s (%s)",
				p, h.Fingerprint, paths[0], ref.Fingerprint)
		case h.ShardCount != ref.ShardCount:
			err = fmt.Errorf("sweep: %s is shard %d/%d but %s is %d/%d — mixed shard widths cannot merge",
				p, h.ShardIndex, h.ShardCount, paths[0], ref.ShardIndex, ref.ShardCount)
		}
		if err == nil {
			err = mergeEntries(r, plan, res, seen, rep)
		}
		r.Close()
		if err != nil {
			return nil, nil, err
		}
		if c := r.Corrupt(); c != nil {
			rep.Corrupt = append(rep.Corrupt, c)
		}
	}
	if rep.Units != rep.UnitsTotal {
		missing := missingShards(plan, seen, rep.ShardCount)
		return nil, rep, fmt.Errorf("sweep: merge incomplete: %d/%d units present; shards with missing work: %v",
			rep.Units, rep.UnitsTotal, missing)
	}

	for p := range res.Series {
		for k := range res.Series[p] {
			for _, day := range res.Series[p][k].Daily {
				res.TradeCount += int64(len(day))
			}
		}
	}
	return res, rep, nil
}

// newMergeTarget rebuilds the sweep's plan from a journal header and
// allocates the empty Result its units are merged into.
func newMergeTarget(h Header) (*Plan, *backtest.Result, error) {
	uni, err := taq.NewUniverse(h.Symbols)
	if err != nil {
		return nil, nil, err
	}
	var types []corr.Type
	for _, name := range h.Types {
		t, err := corr.ParseType(name)
		if err != nil {
			return nil, nil, err
		}
		types = append(types, t)
	}
	plan := &Plan{
		Levels:    h.Levels,
		Types:     types,
		Days:      h.Days,
		NumPairs:  uni.NumPairs(),
		BlockSize: h.BlockSize,
	}
	if plan.NumUnits() != h.UnitsTotal {
		return nil, nil, fmt.Errorf("sweep: journal header inconsistent: %d units declared, %d derived", h.UnitsTotal, plan.NumUnits())
	}
	res := &backtest.Result{Universe: uni, Levels: h.Levels, Types: types, Days: h.Days}
	res.Series = make([][]metrics.PairParamSeries, plan.NumPairs)
	for p := range res.Series {
		res.Series[p] = make([]metrics.PairParamSeries, plan.NumParams())
		for k := range res.Series[p] {
			res.Series[p][k].Daily = make([][]float64, plan.Days)
		}
	}
	return plan, res, nil
}

// mergeEntries streams r's intact entries into res, one decoded record
// at a time; the last occurrence of a unit wins.
func mergeEntries(r *JournalReader, plan *Plan, res *backtest.Result, seen []bool, rep *MergeReport) error {
	for {
		e, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		u := plan.UnitFromID(e.U)
		lo, hi := plan.BlockRange(u.Block)
		if len(e.Rets) != hi-lo {
			return fmt.Errorf("sweep: unit %d has %d pair rows, want %d", e.U, len(e.Rets), hi-lo)
		}
		if seen[e.U] {
			rep.Duplicates++
		} else {
			seen[e.U] = true
			rep.Units++
		}
		for i, rets := range e.Rets {
			res.Series[lo+i][u.Param].Daily[u.Day] = rets
		}
	}
}

// missingShards lists which shard indexes own at least one missing
// unit — the actionable part of an incomplete-merge error.
func missingShards(plan *Plan, seen []bool, n int) []int {
	set := map[int]bool{}
	for id := 0; id < plan.NumUnits(); id++ {
		if !seen[id] {
			set[plan.GroupOwner(id/plan.NumParams(), n)] = true
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
