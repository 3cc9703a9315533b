package main

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"marketminer/internal/taq"
)

func TestRunWritesReadableCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "taq.csv")
	if err := run(out, 1, 4, 5, 0.05, 0.01, 2, false, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	quotes, err := taq.NewReader(f, true).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(quotes) == 0 {
		t.Fatal("no quotes written")
	}
	for _, q := range quotes[:10] {
		if q.Day != 0 || q.Symbol == "" {
			t.Fatalf("malformed quote %+v", q)
		}
	}
}

func TestRunSampleMode(t *testing.T) {
	// Sample mode writes to stdout only; it must not create the file.
	out := filepath.Join(t.TempDir(), "unused.csv")
	if err := run(out, 1, 4, 5, 0.05, 0, 2, true, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("sample mode should not write a file")
	}
}

func TestRunValidatesStocks(t *testing.T) {
	if err := run("x.csv", 1, 1, 5, 0.05, 0, 2, false, 0); err == nil {
		t.Error("stocks < 2 should error")
	}
	if err := run("x.csv", 1, 1025, 5, 0.05, 0, 2, false, 0); err == nil {
		t.Error("stocks > 1024 should error")
	}
}

// TestRunSyntheticUniverseDeterministic pins the scaled-universe
// contract: past the 61 real tickers the generator extends the
// universe with synthetic symbols, and two runs at the same size and
// seed produce byte-identical files — the property that makes large
// sharded sweeps reproducible.
func TestRunSyntheticUniverseDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	// 80 stocks crosses the synthetic-ticker boundary; one day keeps
	// the test fast.
	if err := run(a, 1, 80, 5, 0.05, 0, 7, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(b, 1, 80, 5, 0.05, 0, 7, false, 0); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("same size+seed produced different files")
	}
	if len(da) == 0 {
		t.Fatal("empty output")
	}
}

// TestRunMatchesParentDigest pins the CSV bytes of a small two-day run,
// recorded while each day was gathered and sorted by sort.Slice.
func TestRunMatchesParentDigest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "taq.csv")
	if err := run(out, 2, 8, 11, 0.05, 0.01, 3, false, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	if got, want := h.Sum64(), uint64(0x6676420459c20381); len(b) != 701863 || got != want {
		t.Errorf("%d bytes, digest %#x; want %d, %#x", len(b), got, 701863, want)
	}
}
