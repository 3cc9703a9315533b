package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"marketminer"
	"marketminer/internal/backtest"
	"marketminer/internal/sweep"
)

func tinyConfig() marketminer.BacktestConfig {
	cfg := marketminer.SweepConfig(marketminer.ScaleTiny, 3)
	cfg.Levels = marketminer.ParamLevels()[:2]
	return cfg
}

func writeResults(t *testing.T) string {
	t.Helper()
	res, err := sweep.Backtest(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := backtest.SaveJSON(f, res); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRendersSavedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := writeResults(t)
	if err := run(path, "", "", 2); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresExactlyOneInput(t *testing.T) {
	if err := run("", "", "", 0); err == nil {
		t.Error("missing -in/-merge should error")
	}
	if err := run("a.json", "b.journal", "", 0); err == nil {
		t.Error("both -in and -merge should error")
	}
	if err := run("/nonexistent/results.json", "", "", 0); err == nil {
		t.Error("missing file should error")
	}
	if err := run("", "/nonexistent/*.journal", "", 0); err == nil {
		t.Error("empty glob should error")
	}
}

// TestRunMergesShardJournals drives the sharded path end to end: two
// shard processes write journals, mmreport merges and renders them,
// and the -out JSON equals what the monolithic runner would have
// saved.
func TestRunMergesShardJournals(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		_, err := sweep.Run(context.Background(), sweep.RunConfig{
			Config:      cfg,
			Shard:       sweep.Shard{Index: i, Count: 2},
			JournalPath: filepath.Join(dir, "shard"+string(rune('0'+i))+".journal"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "merged.json")
	if err := run("", filepath.Join(dir, "shard*.journal"), out, 1); err != nil {
		t.Fatal(err)
	}

	want, err := sweep.Backtest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := backtest.LoadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.TradeCount != want.TradeCount {
		t.Fatalf("merged trade count %d, single-shot %d", got.TradeCount, want.TradeCount)
	}
}
