package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"marketminer/internal/chaos"
	"marketminer/internal/core"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// channelOf replays quotes through a channel of the given depth, as a
// feed.Collector delivers them.
func channelOf(quotes []taq.Quote, depth int) <-chan taq.Quote {
	ch := make(chan taq.Quote, depth)
	go func() {
		defer close(ch)
		for _, q := range quotes {
			ch <- q
		}
	}()
	return ch
}

// How quotes are grouped into batches — the capacity, and where
// flush-on-idle happens to cut them, which differs from run to run on a
// channel source — is not allowed to show in anything the pipeline
// decides. Every source kind × batch capacity must reproduce, bit for
// bit, what the same quote stream gives from a slice at the default
// capacity.
func TestPipelineResultIndependentOfBatching(t *testing.T) {
	u, quotes, params := core.DayForTest(t)
	slice := func() core.QuoteSource { return core.SliceSource(quotes) }
	channel := func() core.QuoteSource { return core.ChannelSource(channelOf(quotes, 64)) }
	unbuffered := func() core.QuoteSource { return core.ChannelSource(channelOf(quotes, 0)) }
	perturbed := func(src func() core.QuoteSource) func() core.QuoteSource {
		return func() core.QuoteSource {
			return chaos.New(chaos.Spec{Seed: 7, DropRate: 0.02, DupRate: 0.02, ReorderRate: 0.05}).Source(src())
		}
	}
	supervised := &core.SuperviseOptions{}

	// The first case of each stream is its reference.
	streams := map[string][]struct {
		name   string
		source func() core.QuoteSource
		sup    *core.SuperviseOptions
	}{
		"clean": {
			{"slice", slice, nil},
			{"channel", channel, nil},
			{"unbuffered-channel", unbuffered, nil},
			{"supervised-channel", channel, supervised},
		},
		"chaos": {
			{"slice", perturbed(slice), nil},
			{"channel", perturbed(channel), nil},
			{"supervised-slice", perturbed(slice), supervised},
		},
	}
	for stream, cases := range streams {
		var want *core.PipelineResult
		for _, c := range cases {
			for _, batchCap := range []int{core.QuoteBatchCap, 1, 3} {
				name := fmt.Sprintf("%s/%s/cap%d", stream, c.name, batchCap)
				cfg := core.PipelineConfig{Universe: u, Params: []strategy.Params{params}, Supervise: c.sup}
				got, err := core.RunPipelineBatchCap(context.Background(), cfg, c.source(), 0, batchCap)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want == nil {
					want = got
					if got.Matrices == 0 || len(got.Trades[0]) == 0 {
						t.Fatalf("%s: degenerate reference: %d matrices, %d trades", name, got.Matrices, len(got.Trades[0]))
					}
					continue
				}
				if got.QuotesIn != want.QuotesIn || got.QuotesClean != want.QuotesClean ||
					got.Matrices != want.Matrices || got.Orders != want.Orders ||
					got.OrdersRejected != want.OrdersRejected || got.CashPnL != want.CashPnL ||
					got.BookFlat != want.BookFlat {
					t.Errorf("%s: in %d clean %d matrices %d orders %d, want in %d clean %d matrices %d orders %d",
						name, got.QuotesIn, got.QuotesClean, got.Matrices, got.Orders,
						want.QuotesIn, want.QuotesClean, want.Matrices, want.Orders)
				}
				if !reflect.DeepEqual(got.Trades, want.Trades) {
					t.Errorf("%s: trade stream differs", name)
				}
			}
		}
	}
}
