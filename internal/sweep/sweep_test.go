package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/market"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// testConfig returns a small but non-trivial sweep: two window lengths
// M (so the per-group byM fan-out is exercised), all three correlation
// treatments, several pairs and days.
func testConfig(t *testing.T, stocks, days, levels int, seed int64) backtest.Config {
	t.Helper()
	uni, err := taq.NewUniverse(taq.DefaultSymbols()[:stocks])
	if err != nil {
		t.Fatal(err)
	}
	mc := market.DefaultConfig()
	mc.Universe = uni
	mc.Days = days
	mc.Seed = seed
	return backtest.Config{Market: mc, Levels: strategy.BaseGrid()[:levels], Workers: 2}
}

func runShards(t *testing.T, cfg backtest.Config, shards, blockSize int, dir string) []string {
	t.Helper()
	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.journal", i))
		st, err := Run(context.Background(), RunConfig{
			Config:      cfg,
			BlockSize:   blockSize,
			Shard:       Shard{Index: i, Count: shards},
			JournalPath: paths[i],
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		if st.Paused {
			t.Fatalf("shard %d/%d paused without a limit", i, shards)
		}
		if st.UnitsExecuted+st.UnitsSkipped != st.UnitsTotal {
			t.Fatalf("shard %d/%d incomplete: %d+%d of %d units", i, shards, st.UnitsExecuted, st.UnitsSkipped, st.UnitsTotal)
		}
	}
	return paths
}

// sameResult asserts bit-identical sweep output: trade-for-trade,
// return-for-return, and byte-for-byte through the JSON serialisation
// mmreport consumes.
func sameResult(t *testing.T, want, got *backtest.Result, label string) {
	t.Helper()
	if got.TradeCount != want.TradeCount {
		t.Fatalf("%s: %d trades, want %d", label, got.TradeCount, want.TradeCount)
	}
	if !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatalf("%s: merged return series differ from single-shot", label)
	}
	var wb, gb bytes.Buffer
	if err := backtest.SaveJSON(&wb, want); err != nil {
		t.Fatal(err)
	}
	if err := backtest.SaveJSON(&gb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: serialised results are not byte-identical", label)
	}
}

// TestShardedMergeEqualsSingleShot is the bit-determinism property of
// the acceptance criteria: for every shard width and block size, the
// merged per-shard journals equal the in-memory Backtest exactly.
func TestShardedMergeEqualsSingleShot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{42, 20080301} {
		cfg := testConfig(t, 6, 2, 2, seed)
		want, err := Backtest(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ shards, block int }{
			{1, 0},    // single shard, default blocks
			{2, 5},    // uneven final block (15 pairs / 5)
			{3, 4},    // more shards than days
			{2, 1000}, // one block spanning all pairs
			{5, 1},    // one pair per block
		} {
			label := fmt.Sprintf("seed=%d shards=%d block=%d", seed, tc.shards, tc.block)
			paths := runShards(t, cfg, tc.shards, tc.block, t.TempDir())
			got, rep, err := MergeFiles(paths)
			if err != nil {
				t.Fatalf("%s: merge: %v", label, err)
			}
			if rep.Units != rep.UnitsTotal || rep.Duplicates != 0 {
				t.Fatalf("%s: merge report %+v", label, rep)
			}
			sameResult(t, want, got, label)
		}
	}
}

// TestResumeReproducesSingleShot kills a sweep twice — once by unit
// budget, once by context cancellation mid-run — and asserts the
// resumed journal merges to the identical trade count and return
// series as an uninterrupted run.
func TestResumeReproducesSingleShot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(t, 6, 2, 2, 7)
	want, err := Backtest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("limit", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.journal")
		rc := RunConfig{Config: cfg, BlockSize: 4, Shard: Shard{0, 1}, JournalPath: path, Limit: 5}
		st1, err := Run(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		if !st1.Paused || st1.UnitsExecuted != 5 {
			t.Fatalf("budgeted run: paused=%v executed=%d, want paused after 5", st1.Paused, st1.UnitsExecuted)
		}
		if _, _, err := MergeFiles([]string{path}); err == nil {
			t.Fatal("merging a paused shard should report missing units")
		}
		rc.Limit = 0
		st2, err := Run(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		if st2.UnitsSkipped != 5 {
			t.Fatalf("resume re-ran checkpointed units: skipped %d, want 5", st2.UnitsSkipped)
		}
		if st2.UnitsExecuted != st2.UnitsTotal-5 {
			t.Fatalf("resume executed %d of %d", st2.UnitsExecuted, st2.UnitsTotal)
		}
		got, _, err := MergeFiles([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, "limit-resume")
	})

	t.Run("cancel", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.journal")
		ctx, cancel := context.WithCancel(context.Background())
		killAfter := 3
		rc := RunConfig{Config: cfg, BlockSize: 4, Shard: Shard{0, 1}, JournalPath: path,
			Progress: func(p ProgressInfo) {
				if p.Done >= killAfter {
					cancel()
				}
			}}
		if _, err := Run(ctx, rc); err == nil {
			t.Fatal("cancelled run should return an error")
		}
		rc.Progress = nil
		st, err := Run(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		if st.UnitsSkipped == 0 {
			t.Fatal("resume after kill found no checkpointed units")
		}
		got, _, err := MergeFiles([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, "cancel-resume")
	})
}

func TestRunRefusesForeignJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.journal")
	cfgA := testConfig(t, 4, 1, 1, 1)
	if _, err := Run(context.Background(), RunConfig{Config: cfgA, Shard: Shard{0, 1}, JournalPath: path}); err != nil {
		t.Fatal(err)
	}
	// Different seed ⇒ different data ⇒ different fingerprint.
	cfgB := testConfig(t, 4, 1, 1, 2)
	if _, err := Run(context.Background(), RunConfig{Config: cfgB, Shard: Shard{0, 1}, JournalPath: path}); err == nil {
		t.Fatal("resuming with a different configuration should be refused")
	}
	// Same configuration, different shard assignment.
	if _, err := Run(context.Background(), RunConfig{Config: cfgA, Shard: Shard{0, 2}, JournalPath: path}); err == nil {
		t.Fatal("resuming with a different shard assignment should be refused")
	}
}

func TestMergeRejectsMixedSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	cfg := testConfig(t, 4, 1, 1, 1)
	a := runShards(t, cfg, 1, 0, dir)
	other := testConfig(t, 4, 1, 1, 9)
	b := filepath.Join(dir, "other.journal")
	if _, err := Run(context.Background(), RunConfig{Config: other, Shard: Shard{0, 1}, JournalPath: b}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeFiles([]string{a[0], b}); err == nil {
		t.Fatal("merging journals of different sweeps should fail")
	}
}

func TestManifestTracksCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.journal")
	cfg := testConfig(t, 4, 1, 1, 3)
	st, err := Run(context.Background(), RunConfig{Config: cfg, Shard: Shard{0, 1}, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != ManifestSchema {
		t.Fatalf("manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if !m.Done || m.UnitsDone != m.UnitsTotal || m.UnitsTotal != st.UnitsTotal {
		t.Fatalf("final manifest %+v, want done with %d units", m, st.UnitsTotal)
	}
	if m.Trades != st.Trades {
		t.Fatalf("manifest trades %d, run stats %d", m.Trades, st.Trades)
	}
	if m.Warm.Windows == 0 || m.Warm.WarmHitFraction <= 0 {
		t.Fatalf("manifest warm-start telemetry missing: %+v", m.Warm)
	}
	// Every progress write replaced the manifest whole: no temp files.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("sweep directory holds %v (%v), want the journal and its manifest", entries, err)
	}
}

func TestParseShard(t *testing.T) {
	if s, err := ParseShard("2/8"); err != nil || s != (Shard{2, 8}) {
		t.Fatalf("ParseShard(2/8) = %v, %v", s, err)
	}
	for _, bad := range []string{"", "3", "3/3", "-1/2", "a/b", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) should fail", bad)
		}
	}
}

func TestPlanUnitRoundTrip(t *testing.T) {
	cfg := testConfig(t, 6, 3, 2, 1)
	plan, err := NewPlan(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 15 pairs / block 4 ⇒ 4 blocks, final block of 3 pairs.
	if plan.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", plan.NumBlocks())
	}
	if lo, hi := plan.BlockRange(3); lo != 12 || hi != 15 {
		t.Fatalf("BlockRange(3) = [%d,%d), want [12,15)", lo, hi)
	}
	seen := map[int]bool{}
	for id := 0; id < plan.NumUnits(); id++ {
		u := plan.UnitFromID(id)
		if got := plan.UnitID(u); got != id {
			t.Fatalf("UnitID(UnitFromID(%d)) = %d", id, got)
		}
		if seen[id] {
			t.Fatalf("duplicate unit id %d", id)
		}
		seen[id] = true
	}
	// Round-robin ownership partitions the groups exactly.
	for n := 1; n <= 5; n++ {
		counts := make([]int, n)
		for gid := 0; gid < plan.NumGroups(); gid++ {
			counts[plan.GroupOwner(gid, n)]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != plan.NumGroups() {
			t.Fatalf("owners cover %d of %d groups", total, plan.NumGroups())
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testConfig(t, 6, 2, 2, 1)
	fp := Fingerprint(base, 0)
	mutations := map[string]backtest.Config{}
	c := testConfig(t, 6, 2, 2, 2)
	mutations["seed"] = c
	c = testConfig(t, 5, 2, 2, 1)
	mutations["universe"] = c
	c = testConfig(t, 6, 3, 2, 1)
	mutations["days"] = c
	c = testConfig(t, 6, 2, 1, 1)
	mutations["levels"] = c
	for name, m := range mutations {
		if Fingerprint(m, 0) == fp {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
	if Fingerprint(base, 64) == fp {
		t.Error("fingerprint insensitive to block size")
	}
	if Fingerprint(base, 0) != fp {
		t.Error("fingerprint not deterministic")
	}
}
