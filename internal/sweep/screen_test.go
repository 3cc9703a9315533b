package sweep

import (
	"context"
	"fmt"
	"math"
	"testing"

	"marketminer/internal/backtest"
	"marketminer/internal/screen"
)

func totalPnL(r *backtest.Result) float64 {
	var s float64
	for p := range r.Series {
		for k := range r.Series[p] {
			for _, day := range r.Series[p][k].Daily {
				for _, ret := range day {
					s += ret
				}
			}
		}
	}
	return s
}

// TestScreenedSweepRecall is the screening recall gate from the design
// contract: on the seed universe, a screened sweep must retain at
// least 95% of the unscreened sweep's trade PnL while actually pruning
// a substantial share of the pair triangle. Screening only removes
// pairs — surviving pairs' series are bit-identical — so lost PnL is
// exactly the pruned pairs' contribution.
func TestScreenedSweepRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(t, 6, 2, 2, 20080301)
	full, err := backtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Screen = screen.Config{TopFrac: 0.5, MinKeep: 2}
	screened, err := backtest.Run(context.Background(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	if screened.TradeCount >= full.TradeCount {
		t.Fatalf("screening pruned nothing: %d trades vs %d", screened.TradeCount, full.TradeCount)
	}
	fp, sp := totalPnL(full), totalPnL(screened)
	if fp <= 0 {
		t.Fatalf("unscreened sweep PnL %v not positive; recall gate undefined", fp)
	}
	if lost := fp - sp; lost > 0.05*math.Abs(fp) {
		t.Fatalf("screened sweep retains %.1f%% of PnL (%v of %v), recall gate needs ≥95%%",
			100*sp/fp, sp, fp)
	}
	t.Logf("recall: screened PnL %v / unscreened %v (%.1f%%), trades %d/%d",
		sp, fp, 100*sp/fp, screened.TradeCount, full.TradeCount)
}

// TestScreenedShardedMergeEqualsSingleShot extends the sweep's
// bit-determinism property to the screened path: the
// orchestrator's per-day screening and block intersection must
// reproduce the integrated runner's screening decision exactly, for
// any shard count and block size.
func TestScreenedShardedMergeEqualsSingleShot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(t, 6, 2, 2, 42)
	cfg.Screen = screen.Config{TopFrac: 0.4, MinKeep: 1}
	want, err := backtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shards, block int }{
		{1, 0}, // single shard, default blocks
		{2, 5}, // uneven final block
		{3, 1}, // one pair per block: pruned blocks skip the engine
	} {
		label := fmt.Sprintf("screened shards=%d block=%d", tc.shards, tc.block)
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

// TestFingerprintScreenFields pins the fingerprint contract for
// screening: inactive screening hashes exactly as before (old journals
// stay resumable), while any active screening setting forks the
// fingerprint.
func TestFingerprintScreenFields(t *testing.T) {
	cfg := testConfig(t, 6, 2, 2, 1)
	base := Fingerprint(cfg, 0)

	zero := cfg
	zero.Screen = screen.Config{}
	if Fingerprint(zero, 0) != base {
		t.Fatal("zero screening changed the fingerprint")
	}

	seen := map[string]string{"": base}
	for name, mut := range map[string]func(*backtest.Config){
		"topfrac":  func(c *backtest.Config) { c.Screen.TopFrac = 0.5 },
		"topfrac2": func(c *backtest.Config) { c.Screen.TopFrac = 0.6 },
		"maxssd":   func(c *backtest.Config) { c.Screen.MaxSSD = 1e-3 },
		"minkeep":  func(c *backtest.Config) { c.Screen.TopFrac = 0.5; c.Screen.MinKeep = 3 },
		"stride":   func(c *backtest.Config) { c.Screen.TopFrac = 0.5; c.Screen.Stride = 4 },
	} {
		m := cfg
		mut(&m)
		fp := Fingerprint(m, 0)
		for other, ofp := range seen {
			if fp == ofp {
				t.Fatalf("config %q collides with %q: %s", name, other, fp)
			}
		}
		seen[name] = fp
	}
}

// TestFingerprintPinned pins fingerprints to the values journals
// already carry on disk, unscreened and screened. A journal whose
// header fingerprint no longer matches is refused on resume and merge,
// so any change to the hash input — including the "f32:false" literal
// screened configurations hash — strands every journal written before
// it.
func TestFingerprintPinned(t *testing.T) {
	cfg := testConfig(t, 6, 2, 2, 1)
	screened := cfg
	screened.Screen = screen.Config{TopFrac: 0.5}
	for _, tc := range []struct {
		name string
		cfg  backtest.Config
		want string
	}{
		{"unscreened", cfg, "5db09990e109bd3d"},
		{"screened", screened, "ba900b2d42bfac3b"},
	} {
		if got := Fingerprint(tc.cfg, 0); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
