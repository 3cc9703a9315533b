package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"marketminer/internal/backtest"
	"marketminer/internal/market"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// ExampleMergeFiles runs a two-shard sweep into separate checkpoint
// journals and merges them into the full Result — the workflow behind
// `mmreport -merge` and the farm coordinator's -merge-out.
func ExampleMergeFiles() {
	dir, err := os.MkdirTemp("", "mergefiles")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	// A miniature sweep: 4 stocks (6 pairs in one block), 2 days, one
	// parameter level across the 3 correlation treatments — 6 units in
	// 2 (day × block) groups.
	uni, err := taq.NewUniverse(taq.DefaultSymbols()[:4])
	if err != nil {
		fmt.Println(err)
		return
	}
	mc := market.DefaultConfig()
	mc.Universe = uni
	mc.Days = 2
	mc.Seed = 7
	cfg := backtest.Config{Market: mc, Levels: strategy.BaseGrid()[:1], Workers: 1}

	// Each shard owns the groups with id ≡ Index (mod Count) and
	// journals them independently — here, one group per shard. The
	// shards could as well be separate processes on separate hosts.
	paths := make([]string, 2)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.journal", i))
		if _, err := Run(context.Background(), RunConfig{
			Config:      cfg,
			Shard:       Shard{Index: i, Count: 2},
			JournalPath: paths[i],
		}); err != nil {
			fmt.Println(err)
			return
		}
	}

	// Merging is pure assembly: the result is bit-identical to an
	// uninterrupted in-memory Backtest of the same config.
	res, rep, err := MergeFiles(paths)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("merged %d/%d units from %d journals (%d duplicates)\n",
		rep.Units, rep.UnitsTotal, rep.Files, rep.Duplicates)
	fmt.Printf("result covers %d days of %d pairs\n", res.Days, res.Universe.NumPairs())
	// Output:
	// merged 6/6 units from 2 journals (0 duplicates)
	// result covers 2 days of 6 pairs
}
