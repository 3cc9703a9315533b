package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"marketminer/internal/core"
	"marketminer/internal/taq"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := "seed=7,corrupt=8192,cut=65536,delay=4096:2ms,partition=5,drop=0.01,dup=0.02,reorder=0.03"
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.CorruptEvery != 8192 || s.CutEvery != 65536 ||
		s.DelayEvery != 4096 || s.MaxDelay != 2*time.Millisecond ||
		s.PartitionEvery != 5 || s.DropRate != 0.01 || s.DupRate != 0.02 || s.ReorderRate != 0.03 {
		t.Fatalf("parsed %+v", s)
	}
	if !s.Active() {
		t.Error("full spec reported inactive")
	}
	back, err := ParseSpec(s.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", s.String(), err)
	}
	if back != s {
		t.Errorf("round trip: %+v vs %+v", back, s)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, text := range []string{
		"", "seed", "seed=x", "corrupt=0", "corrupt=-5", "cut=1.5",
		"delay=100", "delay=100:0s", "delay=0:1ms", "drop=1.5", "drop=-0.1",
		"typo=3", "seed=1,,", "drop=NaN", "dup=NaN", "reorder=NaN", "drop=Inf",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
	if s, err := ParseSpec("seed=9"); err != nil || s.Active() {
		t.Errorf("fault-free spec: %+v, %v", s, err)
	}
}

// FuzzParseSpec: ParseSpec never panics, and every spec it accepts
// renders through String to text that parses back to the same Spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=7,corrupt=8192,cut=65536,delay=4096:2ms,partition=5,drop=0.01,dup=0.02,reorder=0.03",
		"seed=7,corrupt=8192,cut=65536", "seed=7,corrupt=4096,cut=32768",
		"seed=7,cut=65536,partition=4", "seed=7,corrupt=8192", "seed=7,corrupt=16384,cut=32768",
		"seed=5,corrupt=32768,cut=131072", "seed=11,corrupt=16384,cut=65536",
		"seed=5,drop=0.01,dup=0.01", "seed=9", "drop=NaN", "delay=10:1ms", "seed=1,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted as %+v, but its String %q fails: %v", text, s, s.String(), err)
		}
		if back != s {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v", text, s, s.String(), back)
		}
	})
}

// TestParseSpecUnknownAndDuplicateKeys pins the exact diagnostics for
// malformed specs: an unknown key and a repeated key each name the
// offending key instead of being silently ignored or last-wins merged.
func TestParseSpecUnknownAndDuplicateKeys(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"unknown key", "seed=1,bogus=2", `chaos: unknown key "bogus"`},
		{"unknown key alone", "frobnicate=1", `chaos: unknown key "frobnicate"`},
		{"duplicate seed", "seed=1,seed=2", `chaos: duplicate key "seed"`},
		{"duplicate corrupt", "corrupt=10,cut=20,corrupt=30", `chaos: duplicate key "corrupt"`},
		{"duplicate rate", "drop=0.1,drop=0.1", `chaos: duplicate key "drop"`},
		{"duplicate delay", "delay=10:1ms,delay=20:2ms", `chaos: duplicate key "delay"`},
		{"ok single keys", "seed=1,corrupt=10,cut=20", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.text)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ParseSpec(%q) = %v, want nil", tc.text, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted, want %q", tc.text, tc.wantErr)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("ParseSpec(%q) error %q, want %q", tc.text, err, tc.wantErr)
			}
		})
	}
}

// byteConn is an in-memory net.Conn half: reads stream from a buffer,
// writes accumulate into a buffer.
type byteConn struct {
	r      *bytes.Reader
	w      bytes.Buffer
	closed bool
}

func (c *byteConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.r.Read(p)
}

func (c *byteConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.w.Write(p)
}

func (c *byteConn) Close() error                     { c.closed = true; return nil }
func (c *byteConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

func testPayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(mix(0xabc, uint64(i)))
	}
	return data
}

// readThrough pulls the whole stream through a fresh injector with the
// given read-chunk size, returning the bytes delivered before the
// stream ended (EOF or injected cut).
func readThrough(spec Spec, data []byte, chunk int) ([]byte, Stats) {
	ch := New(spec)
	conn := ch.WrapConn(&byteConn{r: bytes.NewReader(data)})
	var out []byte
	buf := make([]byte, chunk)
	for {
		n, err := conn.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, ch.Stats()
		}
	}
}

func TestConnFaultsInvariantToReadChunking(t *testing.T) {
	data := testPayload(256 << 10)
	spec := Spec{Seed: 42, CorruptEvery: 4 << 10, CutEvery: 64 << 10}
	small, st1 := readThrough(spec, data, 7)
	large, st2 := readThrough(spec, data, 8192)
	if !bytes.Equal(small, large) {
		t.Fatalf("delivered bytes differ across chunk sizes: %d vs %d bytes", len(small), len(large))
	}
	if st1 != st2 {
		t.Errorf("fault stats differ across chunk sizes: %+v vs %+v", st1, st2)
	}
	if st1.Cuts != 1 {
		t.Errorf("cuts = %d, want exactly 1 (stream ends at first cut)", st1.Cuts)
	}
	if st1.Corruptions == 0 {
		t.Error("no corruptions fired over 256KiB at mean gap 4KiB")
	}
	if bytes.Equal(small, data[:len(small)]) {
		t.Error("corruption schedule fired but bytes are unchanged")
	}
	// Same seed replays the same schedule; a different seed does not.
	replay, _ := readThrough(spec, data, 1024)
	if !bytes.Equal(replay, small) {
		t.Error("same seed did not replay the same corrupted stream")
	}
	other, _ := readThrough(Spec{Seed: 43, CorruptEvery: 4 << 10, CutEvery: 64 << 10}, data, 1024)
	if bytes.Equal(other, small) {
		t.Error("different seed replayed the same schedule")
	}
}

func TestConnWriteFaultsInvariantToWriteChunking(t *testing.T) {
	data := testPayload(96 << 10)
	write := func(chunk int) ([]byte, error) {
		ch := New(Spec{Seed: 5, CorruptEvery: 8 << 10, CutEvery: 48 << 10})
		bc := &byteConn{r: bytes.NewReader(nil)}
		conn := ch.WrapConn(bc)
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := conn.Write(data[off:end]); err != nil {
				return bc.w.Bytes(), err
			}
		}
		return bc.w.Bytes(), nil
	}
	a, errA := write(13)
	b, errB := write(4096)
	if !bytes.Equal(a, b) {
		t.Fatalf("written bytes differ across chunk sizes: %d vs %d", len(a), len(b))
	}
	var inj *ErrInjected
	if !errors.As(errA, &inj) || !errors.As(errB, &inj) {
		t.Fatalf("cut errors: %v / %v, want ErrInjected", errA, errB)
	}
	if inj.Fault != "disconnect" {
		t.Errorf("fault = %q", inj.Fault)
	}
}

func TestDialerPartitionsDeterministically(t *testing.T) {
	attempts := func(seed int64) []bool {
		ch := New(Spec{Seed: seed, PartitionEvery: 3})
		dial := ch.Dialer(func(ctx context.Context) (net.Conn, error) {
			return &byteConn{r: bytes.NewReader(nil)}, nil
		})
		var out []bool
		for i := 0; i < 30; i++ {
			conn, err := dial(context.Background())
			if err != nil {
				var inj *ErrInjected
				if !errors.As(err, &inj) || inj.Fault != "partition" {
					t.Fatalf("dial error %v, want injected partition", err)
				}
				out = append(out, true)
				continue
			}
			conn.Close()
			out = append(out, false)
		}
		return out
	}
	first := attempts(11)
	refused := 0
	for _, p := range first {
		if p {
			refused++
		}
	}
	if refused == 0 || refused == len(first) {
		t.Fatalf("refused %d/30 attempts, want a strict subset", refused)
	}
	if !reflect.DeepEqual(first, attempts(11)) {
		t.Error("partition schedule not reproducible for the same seed")
	}
	if reflect.DeepEqual(first, attempts(12)) {
		t.Error("different seeds produced identical partition schedules")
	}
}

func syntheticQuotes(n int) []taq.Quote {
	out := make([]taq.Quote, n)
	for i := range out {
		out[i] = taq.Quote{
			Day: 0, SeqTime: float64(i), Symbol: "AAA",
			Bid: 100 + float64(i%7), Ask: 100.1 + float64(i%7),
			BidSize: 1, AskSize: 1,
		}
	}
	return out
}

func collectSource(t *testing.T, src core.QuoteSource) []taq.Quote {
	t.Helper()
	var got []taq.Quote
	err := src(context.Background(), func(q taq.Quote) bool {
		got = append(got, q)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSourceFaultsDeterministic(t *testing.T) {
	quotes := syntheticQuotes(2000)
	spec := Spec{Seed: 3, DropRate: 0.02, DupRate: 0.02, ReorderRate: 0.05}
	ch := New(spec)
	got := collectSource(t, ch.Source(core.SliceSource(quotes)))
	st := ch.Stats()
	if st.Drops == 0 || st.Dups == 0 || st.Reorders == 0 {
		t.Fatalf("faults did not fire: %+v", st)
	}
	if want := len(quotes) - int(st.Drops) + int(st.Dups); len(got) != want {
		t.Errorf("emitted %d quotes, want %d (%d dropped, %d duplicated)", len(got), want, st.Drops, st.Dups)
	}
	again := collectSource(t, New(spec).Source(core.SliceSource(quotes)))
	if !reflect.DeepEqual(got, again) {
		t.Error("same seed did not replay the same perturbed stream")
	}
	other := collectSource(t, New(Spec{Seed: 4, DropRate: 0.02, DupRate: 0.02, ReorderRate: 0.05}).Source(core.SliceSource(quotes)))
	if reflect.DeepEqual(got, other) {
		t.Error("different seed replayed the same perturbed stream")
	}
}

func TestSourceZeroSpecIsTransparent(t *testing.T) {
	quotes := syntheticQuotes(500)
	got := collectSource(t, New(Spec{Seed: 1}).Source(core.SliceSource(quotes)))
	if !reflect.DeepEqual(got, quotes) {
		t.Error("inactive spec perturbed the stream")
	}
}

func TestListenerAppliesSchedule(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := New(Spec{Seed: 9, CutEvery: 512})
	wrapped := ch.Listener(l)

	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := wrapped.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		payload := testPayload(64 << 10)
		for off := 0; off < len(payload); off += 1024 {
			if _, err := conn.Write(payload[off : off+1024]); err != nil {
				return // injected cut — expected
			}
		}
		t.Error("server wrote 64KiB through a cut-every-512 schedule")
	}()

	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	n, _ := io.Copy(io.Discard, client)
	<-done
	if st := ch.Stats(); st.Cuts == 0 {
		t.Errorf("no cut recorded (client saw %d bytes)", n)
	}
}
