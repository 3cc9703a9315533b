package chaos

// Zero-loss acceptance suite: the networked Figure-1 pipeline run
// through an actively hostile network — corrupted bytes, severed
// connections, refused dials, injected latency — must produce results
// byte-identical to the in-process pipeline on the same data. The wire
// protocol's CRC framing plus resume-from-sequence reconnects make
// every injected fault recoverable, and the seeded schedule makes each
// hostile run a deterministic regression test, not a flake.

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"marketminer/internal/core"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

func TestE2E_ChaoticNetworkBitIdenticalToInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	u, err := taq.NewUniverse([]string{"XOM", "CVX", "UPS", "FDX", "WMT"})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := market.NewGenerator(market.Config{Universe: u, Seed: 17, Days: 1, Contamination: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	day, err := gen.GenerateDay(0)
	if err != nil {
		t.Fatal(err)
	}
	quotes := day.Quotes

	p := strategy.DefaultParams()
	p.M = 50
	cfg := func(u *taq.Universe) core.PipelineConfig {
		return core.PipelineConfig{Universe: u, Params: []strategy.Params{p}}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	baseline, err := core.RunPipeline(ctx, cfg(u), quotes, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The server speaks through a corrupting listener; the client dials
	// through cuts and partitions. Both directions are hostile at once.
	serverChaos := New(Spec{Seed: 101, CorruptEvery: 24 << 10, DelayEvery: 32 << 10, MaxDelay: time.Millisecond})
	clientChaos := New(Spec{Seed: 202, CutEvery: 96 << 10, PartitionEvery: 4})

	srv, err := feed.NewServer(feed.ServerConfig{Universe: u, BatchSize: 256, Heartbeat: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(serverChaos.Listener(l))
	go func() {
		srv.PublishBatch(quotes)
		srv.Finish()
	}()

	col := feed.NewCollector(feed.CollectorConfig{
		Dial:             clientChaos.Dialer(feed.Dialer(l.Addr().String())),
		Backoff:          2 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	})
	go col.Run(ctx)
	cu, err := col.Universe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunPipelineSource(ctx, cfg(cu), core.ChannelSource(col.Quotes()), 0)
	if err != nil {
		t.Fatal(err)
	}

	if got.QuotesIn != baseline.QuotesIn || got.QuotesClean != baseline.QuotesClean {
		t.Errorf("quotes in/clean = %d/%d, baseline %d/%d (lossy recovery)",
			got.QuotesIn, got.QuotesClean, baseline.QuotesIn, baseline.QuotesClean)
	}
	if got.Orders != baseline.Orders || got.OrdersRejected != baseline.OrdersRejected {
		t.Errorf("orders = %d (%d rejected), baseline %d (%d)",
			got.Orders, got.OrdersRejected, baseline.Orders, baseline.OrdersRejected)
	}
	if got.CashPnL != baseline.CashPnL {
		t.Errorf("cash PnL = %v, baseline %v", got.CashPnL, baseline.CashPnL)
	}
	if got.Matrices != baseline.Matrices {
		t.Errorf("matrices = %d, baseline %d", got.Matrices, baseline.Matrices)
	}
	if !reflect.DeepEqual(got.Trades, baseline.Trades) {
		t.Errorf("trade stream differs from in-process run (%d vs %d trades)",
			len(got.Trades[0]), len(baseline.Trades[0]))
	}

	// The pass must come from surviving faults, not dodging them.
	cs := col.Stats()
	sst, cst := serverChaos.Stats(), clientChaos.Stats()
	if sst.Corruptions == 0 {
		t.Errorf("server-side schedule never corrupted a byte: %+v", sst)
	}
	if cst.Cuts == 0 && cst.Partitions == 0 {
		t.Errorf("client-side schedule never severed a connection: %+v", cst)
	}
	if cs.Connects < 2 {
		t.Errorf("collector connected %d times; chaos should have forced reconnects (dial failures %d, disconnects %d)",
			cs.Connects, cs.DialFailures, cs.Disconnects)
	}
	t.Logf("survived: server %+v client %+v collector connects=%d resumes: gaps=%d dups=%d",
		sst, cst, cs.Connects, cs.Gaps, cs.Duplicates)
}
