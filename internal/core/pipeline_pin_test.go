package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"marketminer/internal/corr"
	"marketminer/internal/strategy"
)

// pinnedPipelineDigest is the digest of pipelineDayDigest. It holds
// every field of every trade, the master's order counts, cash P&L and
// flatness, and the matrix and quote counts, so it moves if any stage
// of the unsupervised pipeline cleans, samples, correlates, averages
// or trades differently.
const pinnedPipelineDigest = "a59c716ccfc00025"

// pipelineDayDigest runs day 0 of a 20-stock default market through
// the pipeline for each correlation treatment: once per trailing
// window W, and once with both W as two strategy nodes. The cash P&L
// is digested from the one-node runs only, as it was when the master
// folded two nodes' baskets in arrival order (TestTwoNodeCashIsSumOfNodes
// covers the two-node sum).
func pipelineDayDigest(t *testing.T) (digest string, trades int) {
	gen, quotes := defaultMarketDay(t, 20)
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, ct := range []corr.Type{corr.Pearson, corr.Maronna} {
		level := func(w int) strategy.Params {
			p := strategy.DefaultParams().WithType(ct)
			p.W = w
			return p
		}
		for _, levels := range [][]strategy.Params{{level(30)}, {level(60)}, {level(30), level(60)}} {
			res, err := RunPipeline(context.Background(), PipelineConfig{
				Universe: gen.Config().Universe,
				Params:   levels,
				Workers:  2,
			}, quotes, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range res.Trades {
				put(uint64(len(ts)))
				trades += len(ts)
				for _, tr := range ts {
					put(uint64(tr.Day), uint64(tr.PairI), uint64(tr.PairJ), uint64(tr.EntryS), uint64(tr.ExitS),
						uint64(tr.LongStock), uint64(tr.ShortStock), uint64(tr.LongSh), uint64(tr.ShortSh), uint64(tr.Reason))
					for _, v := range []float64{tr.LongEntry, tr.ShortEntry, tr.LongExit, tr.ShortExit, tr.PnL, tr.Return} {
						put(math.Float64bits(v))
					}
				}
			}
			flat := uint64(0)
			if res.BookFlat {
				flat = 1
			}
			put(uint64(res.Orders), uint64(res.OrdersRejected), flat,
				uint64(res.Matrices), uint64(res.QuotesIn), uint64(res.QuotesClean))
			if len(levels) == 1 {
				put(math.Float64bits(res.CashPnL))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), trades
}

// TestPipelineMatchesParentDigest pins strategy nodes of different W,
// alone and side by side, on an unsupervised 20-stock day, for Pearson
// and Maronna.
func TestPipelineMatchesParentDigest(t *testing.T) {
	got, trades := pipelineDayDigest(t)
	if trades == 0 {
		t.Fatal("the pinned day traded nothing")
	}
	if got != pinnedPipelineDigest {
		t.Errorf("pipeline day digest = %s, want %s (%d trades)", got, pinnedPipelineDigest, trades)
	}
}

// TestTwoNodeCashIsSumOfNodes: without risk limits every basket is
// accepted, so a run with W 30 and W 60 as two strategy nodes realises
// exactly the cash of the W 30 run plus that of the W 60 run — bit for
// bit, in every run, whatever order the two nodes' baskets reach the
// master in.
func TestTwoNodeCashIsSumOfNodes(t *testing.T) {
	gen, quotes := defaultMarketDay(t, 20)
	run := func(ws ...int) float64 {
		t.Helper()
		var levels []strategy.Params
		for _, w := range ws {
			p := strategy.DefaultParams()
			p.W = w
			levels = append(levels, p)
		}
		res, err := RunPipeline(context.Background(), PipelineConfig{
			Universe: gen.Config().Universe,
			Params:   levels,
			Workers:  2,
		}, quotes, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.CashPnL
	}
	want := run(30) + run(60)
	for i := 0; i < 6; i++ {
		if got := run(30, 60); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: two-node cash %v, want the W 30 run's plus the W 60 run's, %v", i, got, want)
		}
	}
}
