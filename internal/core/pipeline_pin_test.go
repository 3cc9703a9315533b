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
// window W, and once with both W as two strategy nodes. The master
// folds the baskets of two nodes in arrival order, so the cash P&L of
// the two-node run depends on scheduling in its last bits; it is
// digested from the one-node runs only.
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
