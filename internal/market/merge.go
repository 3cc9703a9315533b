package market

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"marketminer/internal/taq"
)

// slabQuotes is about how many quotes mergeRuns orders at a time: a
// slab's quotes (256 KB) and keys stay in cache from being read out of
// their runs to being emitted.
const slabQuotes = 4096

// slabKey is one quote of a slab: its time, its run and its index in
// the run.
type slabKey struct {
	t    float64
	r, k int32
}

// mergeRuns calls emit for every quote of runs, in ascending SeqTime
// with equal times in run order. Each run is ascending in SeqTime; emit
// must not retain q, and its first error stops the merge.
//
// The runs' span is cut into time slabs of about slabQuotes quotes
// each. Each run hands a slab the quotes before the slab's end time,
// which are the next ones from the run's cursor, so the runs are read
// front to back; the slab's keys, gathered run by run, are sorted
// stably by time; and its quotes are emitted while they are still in
// cache. The slab sort counts its keys into as many equal-width time
// buckets as it has keys and insertion-sorts each bucket, so times
// spread over the day as the generator draws them cost a few passes
// over each slab.
func mergeRuns(runs [][]taq.Quote, emit func(q *taq.Quote) error) error {
	lo, hi, n := span(runs)
	next := make([]int, len(runs)) // run r's first quote not yet emitted
	slabs := max(1, (n+slabQuotes-1)/slabQuotes)
	width := (hi - lo) / float64(slabs)
	var keys, sorted []slabKey
	var count []int
	for s := 1; s <= slabs; s++ {
		// Slab s holds the times below its bound; the last takes the rest.
		bound := lo + float64(s)*width
		if s == slabs {
			bound = math.Inf(1)
		}
		keys = keys[:0]
		slo, shi := math.Inf(1), math.Inf(-1)
		for r, run := range runs {
			k := next[r]
			for ; k < len(run) && run[k].SeqTime < bound; k++ {
				keys = append(keys, slabKey{run[k].SeqTime, int32(r), int32(k)})
			}
			if k > next[r] {
				// The run's part of the slab is ascending.
				slo = min(slo, run[next[r]].SeqTime)
				shi = max(shi, run[k-1].SeqTime)
			}
			next[r] = k
		}
		sorted, count = sortSlab(keys, slo, shi, sorted, count)
		for _, key := range sorted {
			if err := emit(&runs[key.r][key.k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// span returns the earliest and latest time of ascending runs and
// their total length.
func span(runs [][]taq.Quote) (lo, hi float64, n int) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, run := range runs {
		if len(run) > 0 {
			lo = min(lo, run[0].SeqTime)
			hi = max(hi, run[len(run)-1].SeqTime)
		}
		n += len(run)
	}
	return lo, hi, n
}

// mergeInto writes runs into dst, which holds exactly their quotes, in
// mergeRuns' order. The runs' parts before and from the middle of their
// span merge at the same time, each into its own part of dst.
func mergeInto(dst []taq.Quote, runs [][]taq.Quote) {
	lo, hi, _ := span(runs)
	early, late := splitRuns(runs, lo+(hi-lo)/2)
	_, _, cut := span(early)
	fill := func(dst []taq.Quote, runs [][]taq.Quote) {
		// The emit below never fails, so neither does the merge.
		_ = mergeRuns(runs, func(q *taq.Quote) error {
			dst[0] = *q
			dst = dst[1:]
			return nil
		})
	}
	done := make(chan struct{})
	go func() {
		fill(dst[:cut], early)
		close(done)
	}()
	fill(dst[cut:], late)
	<-done
}

// splitRuns cuts each ascending run at time t: early holds the parts
// before t, late the parts from t on.
func splitRuns(runs [][]taq.Quote, t float64) (early, late [][]taq.Quote) {
	early = make([][]taq.Quote, len(runs))
	late = make([][]taq.Quote, len(runs))
	for r, run := range runs {
		k := sort.Search(len(run), func(k int) bool { return run[k].SeqTime >= t })
		early[r], late[r] = run[:k], run[k:]
	}
	return early, late
}

// sortSlab returns keys, whose times lie in [lo, hi], sorted stably by
// time in sorted, reusing the memory of sorted and count.
func sortSlab(keys []slabKey, lo, hi float64, sorted []slabKey, count []int) ([]slabKey, []int) {
	m := len(keys)
	sorted = slices.Grow(sorted[:0], m)[:m]
	count = slices.Grow(count[:0], m+1)[:m+1]
	clear(count)
	if m == 0 {
		return sorted, count
	}
	// bucket is monotone in t, so sorting by bucket first and by time
	// within a bucket sorts by time. A span of one time, or one too wide
	// to scale, sends times to the last bucket.
	scale := float64(m) / (hi - lo)
	bucket := func(t float64) int {
		if x := (t - lo) * scale; x < float64(m-1) {
			return int(x)
		}
		return m - 1
	}
	// count[b+1] counts bucket b; prefixed, count[b] is where bucket b
	// starts, and after the scatter it is where bucket b ends.
	for _, k := range keys {
		count[bucket(k.t)+1]++
	}
	for b := 1; b <= m; b++ {
		count[b] += count[b-1]
	}
	for _, k := range keys {
		b := bucket(k.t)
		sorted[count[b]] = k
		count[b]++
	}
	start := 0
	for _, end := range count[:m] {
		if end-start > 1 {
			insertionSort(sorted[start:end])
		}
		start = end
	}
	return sorted, count
}

// insertionSort sorts a bucket stably by time: a key moves only past a
// strictly later one. A bucket too large for it, which only times
// bunched far tighter than the generator's produce, is sorted stably
// in O(n log n) instead.
func insertionSort(b []slabKey) {
	if len(b) > 32 {
		slices.SortStableFunc(b, func(x, y slabKey) int { return cmp.Compare(x.t, y.t) })
		return
	}
	for k := 1; k < len(b); k++ {
		key := b[k]
		j := k
		for ; j > 0 && b[j-1].t > key.t; j-- {
			b[j] = b[j-1]
		}
		b[j] = key
	}
}
