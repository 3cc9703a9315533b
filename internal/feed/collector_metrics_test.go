package feed

import (
	"context"
	"net"
	"testing"
	"time"

	"marketminer/internal/metrics"
	"marketminer/internal/taq"
)

// scriptedSession answers one collector connection by hand: read the
// Subscribe, send a Hello, then run the supplied script against the
// encoder. It gives gap tests precise control over sequence numbers,
// which the real Server (correct by construction) never misnumbers.
func scriptedSession(t *testing.T, conn net.Conn, u *taq.Universe, script func(enc *Encoder, from uint64)) {
	t.Helper()
	defer conn.Close()
	dec := NewDecoder(conn)
	f, err := dec.Read()
	if err != nil {
		t.Errorf("scripted server: read subscribe: %v", err)
		return
	}
	sub, ok := f.(*Subscribe)
	if !ok {
		t.Errorf("scripted server: expected subscribe, got %T", f)
		return
	}
	symbols := make([]string, u.Len())
	for i := range symbols {
		symbols[i] = u.Symbol(i)
	}
	enc := NewEncoder(conn, u)
	if err := enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: symbols}); err != nil {
		t.Errorf("scripted server: hello: %v", err)
		return
	}
	script(enc, sub.From)
}

// TestCollectorGapResumeAndReconnectMetrics forces a sequence gap on
// the wire and checks both the stats struct and the process-wide
// metrics mirror: the gap triggers exactly one resume, the second
// session counts as a reconnect, and no quote is lost or duplicated.
func TestCollectorGapResumeAndReconnectMetrics(t *testing.T) {
	u := testUniverse(t)
	quotes := testQuotes(u, 6, 0)
	batch := func(seq uint64) *Batch {
		i := int(seq-1) * 2
		return &Batch{Seq: seq, Day: 0, Quotes: quotes[i : i+2]}
	}

	gapsBefore := metrics.Counter("feed.collector.gap_resumes").Value()
	reconBefore := metrics.Counter("feed.collector.reconnects").Value()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		// Session 1: seq 1 then seq 3 — a hole the collector must
		// refuse to paper over.
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("accept 1: %v", err)
			return
		}
		scriptedSession(t, conn, u, func(enc *Encoder, from uint64) {
			if from != 0 {
				t.Errorf("first subscribe from=%d, want 0", from)
			}
			enc.WriteBatch(batch(1))
			enc.WriteBatch(batch(3))
			// Collector disconnects on the gap; wait for it rather than
			// racing the close.
			NewDecoder(conn).Read()
		})
		// Session 2: resume after the last delivered batch, complete
		// the stream cleanly.
		conn, err = l.Accept()
		if err != nil {
			t.Errorf("accept 2: %v", err)
			return
		}
		scriptedSession(t, conn, u, func(enc *Encoder, from uint64) {
			if from != 1 {
				t.Errorf("resume subscribe from=%d, want 1", from)
			}
			enc.WriteBatch(batch(2))
			enc.WriteBatch(batch(3))
			enc.WriteEnd(&End{Seq: 3})
		})
	}()

	c := NewCollector(CollectorConfig{
		Addr:             l.Addr().String(),
		Backoff:          time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := runCollector(ctx, c)()
	if err != nil {
		t.Fatalf("collector run: %v", err)
	}
	assertSameQuotes(t, got, quotes)
	<-serverDone

	st := c.Stats()
	if st.Gaps != 1 {
		t.Errorf("stats gaps = %d, want 1", st.Gaps)
	}
	if st.Connects != 2 || st.Reconnects != 1 {
		t.Errorf("connects = %d reconnects = %d, want 2 and 1", st.Connects, st.Reconnects)
	}
	if st.Duplicates != 0 {
		t.Errorf("duplicates = %d, want 0 (resume requested the hole)", st.Duplicates)
	}
	if d := metrics.Counter("feed.collector.gap_resumes").Value() - gapsBefore; d != 1 {
		t.Errorf("gap_resumes counter moved by %d, want 1", d)
	}
	if d := metrics.Counter("feed.collector.reconnects").Value() - reconBefore; d != 1 {
		t.Errorf("reconnects counter moved by %d, want 1", d)
	}
}
