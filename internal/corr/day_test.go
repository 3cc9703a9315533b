package corr

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestDaySharesMoments: a Day computes a stock's moments once per
// window, however many blocks touch the stock.
func TestDaySharesMoments(t *testing.T) {
	rets := syntheticReturns(3, 9, 200)
	n := len(rets)
	d, err := NewDay(rets)
	if err != nil {
		t.Fatal(err)
	}
	const m = 40
	// table returns window w's moments, one slice header per stock.
	table := func(w int) []stockMoments {
		dm := d.byM[w]
		dm.mu.Lock()
		defer dm.mu.Unlock()
		return slices.Clone(dm.stock)
	}
	filled := func(tab []stockMoments) (k int) {
		for _, mom := range tab {
			if mom.sum != nil {
				k++
			}
		}
		return k
	}
	// Block 1 is row 0 of the triangle, pairs (0, j): every stock.
	// Block 2 is row 1, pairs (1, j): stocks block 1 already filled.
	row0 := make([]int, n-1)
	row1 := make([]int, n-2)
	for i := range row0 {
		row0[i] = i
	}
	for i := range row1 {
		row1[i] = n - 1 + i
	}
	var first []stockMoments
	for _, blk := range [][]int{row0, row1} {
		got, err := d.Series(EngineConfig{M: m, Workers: 1, Pairs: blk}, []Type{Pearson})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ComputeSeriesMultiReference(EngineConfig{M: m, Workers: 1, Pairs: blk}, []Type{Pearson}, rets)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameSeries(got, ref); msg != "" {
			t.Fatalf("block %v: %s", blk, msg)
		}
		tab := table(m)
		if k := filled(tab); k != n {
			t.Fatalf("after block %v: %d stocks filled, want %d", blk, k, n)
		}
		if first == nil {
			first = tab
			continue
		}
		for i := range tab {
			if &tab[i].sum[0] != &first[i].sum[0] || &tab[i].inv[0] != &first[i].inv[0] {
				t.Fatalf("block %v refilled stock %d's moments", blk, i)
			}
		}
	}
	// Another window is another table, filled only where touched.
	if _, err := d.Series(EngineConfig{M: m + 1, Workers: 1, Pairs: row1}, []Type{Pearson}); err != nil {
		t.Fatal(err)
	}
	if k := filled(table(m + 1)); k != n-1 {
		t.Fatalf("window %d: %d stocks filled, want %d", m+1, k, n-1)
	}
}

// TestDayConcurrentBlocks runs every block of a 40-stock day through
// one Day from 4 goroutines (the sweep's shape: groups of one day in
// parallel) and checks each block bit for bit against the per-pair
// reference. Run it under -race: the moment table fills lazily while
// other blocks read it.
func TestDayConcurrentBlocks(t *testing.T) {
	rets := marketReturns(t, 40, 20261017)
	for i := range rets {
		rets[i] = rets[i][:100]
	}
	const m, block, goroutines = 40, 64, 4
	nPairs := len(rets) * (len(rets) - 1) / 2
	for _, types := range [][]Type{{Pearson}, {Pearson, Maronna, Combined}} {
		ref, err := ComputeSeriesMultiReference(EngineConfig{M: m, Workers: 2}, types, rets)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDay(rets)
		if err != nil {
			t.Fatal(err)
		}
		var next sync.Mutex
		lo := 0
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					next.Lock()
					start := lo
					lo += block
					next.Unlock()
					if start >= nPairs {
						return
					}
					ids := make([]int, 0, block)
					for id := start; id < start+block && id < nPairs; id++ {
						ids = append(ids, id)
					}
					got, err := d.Series(EngineConfig{M: m, Workers: 2, Pairs: ids}, types)
					if err != nil {
						errs <- err
						return
					}
					for oi := range got {
						for k, id := range ids {
							for w, v := range got[oi].Corr[k] {
								if want := ref[oi].Corr[id][w]; math.Float64bits(v) != math.Float64bits(want) {
									errs <- fmt.Errorf("types %v: %v pair %d window %d: %v, reference %v", types, got[oi].Type, id, w, v, want)
									return
								}
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	bad := syntheticReturns(5, 4, 60)
	bad[2][17] = math.NaN()
	if _, err := NewDay(bad); err == nil {
		t.Error("NewDay accepted a NaN return")
	}
}

// sameSeries compares two engine outputs bit for bit.
func sameSeries(got, want []*Series) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d series, want %d", len(got), len(want))
	}
	for oi := range want {
		for k := range want[oi].Corr {
			for w, v := range want[oi].Corr[k] {
				if math.Float64bits(got[oi].Corr[k][w]) != math.Float64bits(v) {
					return fmt.Sprintf("%v row %d window %d: %v, want %v", want[oi].Type, k, w, got[oi].Corr[k][w], v)
				}
			}
		}
	}
	return ""
}
