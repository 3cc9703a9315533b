package market

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"marketminer/internal/taq"
)

// mergedOracle is the stable sort by SeqTime of the runs' stock-major
// concatenation: the order mergeRuns must produce.
func mergedOracle(runs [][]taq.Quote) []taq.Quote {
	want := slices.Concat(runs...)
	slices.SortStableFunc(want, func(a, b taq.Quote) int { return cmp.Compare(a.SeqTime, b.SeqTime) })
	return want
}

// checkMerge compares mergeRuns' emitted stream and mergeInto's slice
// with the oracle, quote for quote.
func checkMerge(t *testing.T, runs [][]taq.Quote) {
	t.Helper()
	want := mergedOracle(runs)
	var got []taq.Quote
	if err := mergeRuns(runs, func(q *taq.Quote) error {
		got = append(got, *q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	into := make([]taq.Quote, len(want))
	mergeInto(into, runs)
	for name, got := range map[string][]taq.Quote{"mergeRuns": got, "mergeInto": into} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d quotes, want %d", name, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: quote %d is %#v, want %#v", name, k, got[k], want[k])
			}
		}
	}
}

// run builds one stock's run at the given times; BidSize numbers the
// quotes within the run so that reordered ties show.
func run(stock string, times ...float64) []taq.Quote {
	qs := make([]taq.Quote, len(times))
	for k, t := range times {
		qs[k] = taq.Quote{SeqTime: t, Symbol: stock, BidSize: k}
	}
	return qs
}

// The merged day is in ascending SeqTime with equal times in stock
// order, and within a stock in run order, however the ties fall.
func TestMergeRunsTies(t *testing.T) {
	runs := [][]taq.Quote{
		run("A", 1, 1, 2, 5),
		run("B", 1, 3, 5, 5),
		run("C"),
		run("D", 0, 1, 5),
	}
	var got []string
	if err := mergeRuns(runs, func(q *taq.Quote) error {
		got = append(got, fmt.Sprintf("%s%d@%g", q.Symbol, q.BidSize, q.SeqTime))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"D0@0", "A0@1", "A1@1", "B0@1", "D1@1", "A2@2", "B1@3", "A3@5", "B2@5", "B3@5", "D2@5"}
	if !slices.Equal(got, want) {
		t.Errorf("merged %v, want %v", got, want)
	}

	// Every time equal, across more than a slab: one bucket, stock order.
	sevens := make([]float64, slabQuotes/2)
	for k := range sevens {
		sevens[k] = 7
	}
	same := make([][]taq.Quote, 5)
	for i := range same {
		same[i] = run(fmt.Sprint(i), sevens...)
	}
	checkMerge(t, same)
	// Times bunched into one bucket by a far outlier, ties included.
	bunched := [][]taq.Quote{run("A", 1, 2, 2, 3, 1e9), run("B", 1, 1, 2, 3, 3)}
	for i := 0; i < 20; i++ {
		bunched = append(bunched, run(fmt.Sprint(i), 1, 2, 2, 3))
	}
	checkMerge(t, bunched)
	// A span too wide to scale: the slab sort falls back to one bucket.
	wide := [][]taq.Quote{run("A", -math.MaxFloat64, 0, 0, math.MaxFloat64), run("B", -1, 0, math.MaxFloat64)}
	checkMerge(t, wide)
	checkMerge(t, runs)
	checkMerge(t, [][]taq.Quote{run("A"), run("B")})
	checkMerge(t, nil)

	// emit's first error stops the merge and is returned.
	calls, stop := 0, errors.New("stop")
	if err := mergeRuns(runs, func(*taq.Quote) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	}); err != stop || calls != 3 {
		t.Errorf("emit failing at call 3: %d calls, error %v", calls, err)
	}
}

// FuzzMergeRuns merges random ascending runs whose times lie on a grid,
// so that many tie within and across runs, and compares the result with
// a stable sort of the runs' stock-major concatenation.
func FuzzMergeRuns(f *testing.F) {
	f.Add(int64(1), uint8(61), uint16(20000), uint8(3), int8(-4))
	f.Add(int64(2), uint8(3), uint16(9000), uint8(0), int8(0))
	f.Add(int64(5), uint8(40), uint16(3000), uint8(9), int8(-2))
	f.Add(int64(3), uint8(1), uint16(100), uint8(7), int8(30))
	f.Add(int64(4), uint8(200), uint16(65535), uint8(1), int8(-30))
	f.Fuzz(func(t *testing.T, seed int64, stocks uint8, quotes uint16, maxStep uint8, exp int8) {
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]taq.Quote, 1+int(stocks)%64)
		at := make([]float64, len(runs))
		quantum := math.Ldexp(1, int(exp)%40)
		base := quantum * float64(rng.Intn(1000)-500)
		for i := range at {
			at[i] = base + quantum*float64(rng.Intn(8))
		}
		for k := 0; k < int(quotes); k++ {
			i := rng.Intn(len(runs))
			// Step 0 ties the quote with its stock's last one.
			at[i] += quantum * float64(rng.Intn(int(maxStep)%8+1))
			runs[i] = append(runs[i], taq.Quote{SeqTime: at[i], Symbol: fmt.Sprint(i), BidSize: len(runs[i])})
		}
		if maxStep&8 != 0 {
			// A far outlier bunches every other time into one bucket.
			runs[0] = append(runs[0], taq.Quote{SeqTime: at[0] + quantum*(1<<20), Symbol: "0", BidSize: len(runs[0])})
		}
		checkMerge(t, runs)
	})
}
