package feed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"marketminer/internal/taq"
)

func testUniverse(t *testing.T) *taq.Universe {
	t.Helper()
	u, err := taq.NewUniverse([]string{"XOM", "CVX", "UPS", "FDX"})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func testQuotes(u *taq.Universe, n int, day int) []taq.Quote {
	out := make([]taq.Quote, n)
	for i := range out {
		out[i] = taq.Quote{
			Day:     day,
			SeqTime: float64(i) * 0.25,
			Symbol:  u.Symbol(i % u.Len()),
			Bid:     100 + float64(i)*0.01,
			Ask:     100.02 + float64(i)*0.01,
			BidSize: i % 50,
			AskSize: (i * 3) % 70,
		}
	}
	return out
}

func TestCodecRoundTripAllFrames(t *testing.T) {
	u := testUniverse(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, u)

	quotes := testQuotes(u, 100, 3)
	frames := []struct {
		name  string
		write func() error
	}{
		{"hello", func() error {
			return enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: u.Symbols()})
		}},
		{"batch", func() error { return enc.WriteBatch(&Batch{Seq: 1, Day: 3, Quotes: quotes}) }},
		{"empty-batch", func() error { return enc.WriteBatch(&Batch{Seq: 2, Day: 3}) }},
		{"heartbeat", func() error { return enc.WriteHeartbeat(&Heartbeat{Seq: 2}) }},
		{"end", func() error { return enc.WriteEnd(&End{Seq: 2}) }},
		{"subscribe", func() error { return enc.WriteSubscribe(&Subscribe{From: 7}) }},
	}
	for _, f := range frames {
		if err := f.write(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
	}

	dec := NewDecoder(&buf)
	f, err := dec.Read()
	if err != nil {
		t.Fatal(err)
	}
	hello, ok := f.(*Hello)
	if !ok || hello.Version != ProtocolVersion || len(hello.Symbols) != u.Len() {
		t.Fatalf("hello mismatch: %+v", f)
	}
	f, err = dec.Read()
	if err != nil {
		t.Fatal(err)
	}
	b := f.(*Batch)
	if b.Seq != 1 || b.Day != 3 || len(b.Quotes) != len(quotes) {
		t.Fatalf("batch header mismatch: seq=%d day=%d n=%d", b.Seq, b.Day, len(b.Quotes))
	}
	for i := range quotes {
		if b.Quotes[i] != quotes[i] {
			t.Fatalf("quote %d: got %+v want %+v", i, b.Quotes[i], quotes[i])
		}
	}
	if f, err = dec.Read(); err != nil || len(f.(*Batch).Quotes) != 0 {
		t.Fatalf("empty batch: %+v, %v", f, err)
	}
	if f, err = dec.Read(); err != nil || f.(*Heartbeat).Seq != 2 {
		t.Fatalf("heartbeat: %+v, %v", f, err)
	}
	if f, err = dec.Read(); err != nil || f.(*End).Seq != 2 {
		t.Fatalf("end: %+v, %v", f, err)
	}
	if f, err = dec.Read(); err != nil || f.(*Subscribe).From != 7 {
		t.Fatalf("subscribe: %+v, %v", f, err)
	}
	if _, err = dec.Read(); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

func TestCodecPreservesExactFloats(t *testing.T) {
	// Binary framing must be bit-exact — no CSV rounding.
	u := testUniverse(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, u)
	enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: u.Symbols()})
	q := taq.Quote{Day: 0, SeqTime: 1.0 / 3, Symbol: "XOM", Bid: math.Pi, Ask: math.E * 2, BidSize: 1, AskSize: 1}
	if err := enc.WriteBatch(&Batch{Seq: 1, Quotes: []taq.Quote{q}}); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	dec.Read() // hello
	f, err := dec.Read()
	if err != nil {
		t.Fatal(err)
	}
	got := f.(*Batch).Quotes[0]
	if got.Bid != math.Pi || got.Ask != math.E*2 || got.SeqTime != 1.0/3 {
		t.Fatalf("floats not bit-exact: %+v", got)
	}
}

func TestEncoderRejectsBadBatches(t *testing.T) {
	u := testUniverse(t)
	var buf bytes.Buffer

	if err := NewEncoder(&buf, nil).WriteBatch(&Batch{Seq: 1}); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil-universe encoder: %v", err)
	}
	enc := NewEncoder(&buf, u)
	bad := &Batch{Seq: 1, Quotes: []taq.Quote{{Symbol: "NOPE", Bid: 1, Ask: 2}}}
	if err := enc.WriteBatch(bad); !errors.Is(err, ErrProtocol) {
		t.Errorf("unknown symbol: %v", err)
	}
	neg := &Batch{Seq: 1, Quotes: []taq.Quote{{Symbol: "XOM", Bid: 1, Ask: 2, BidSize: -1}}}
	if err := enc.WriteBatch(neg); !errors.Is(err, ErrProtocol) {
		t.Errorf("negative size: %v", err)
	}
}

// rawFrame hand-builds a wire frame with a correct length prefix and
// CRC, so corruption tests can reach the structural checks that run
// after checksum verification.
func rawFrame(t FrameType, payload []byte) []byte {
	out := make([]byte, 0, frameHeaderSize+len(payload))
	out = append(out, byte(t), 0, 0, 0, 0, 0, 0, 0, 0)
	out = append(out, payload...)
	binary.LittleEndian.PutUint32(out[1:5], uint32(len(payload)))
	crc := crc32.Update(0, crc32.IEEETable, out[:1])
	crc = crc32.Update(crc, crc32.IEEETable, out[frameHeaderSize:])
	binary.LittleEndian.PutUint32(out[5:frameHeaderSize], crc)
	return out
}

func TestDecoderRejectsCorruptStreams(t *testing.T) {
	u := testUniverse(t)
	goodHello := func() []byte {
		var buf bytes.Buffer
		NewEncoder(&buf, u).WriteHello(&Hello{Version: 1, Symbols: u.Symbols()})
		return buf.Bytes()
	}
	goodBatch := func() []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, u)
		enc.WriteBatch(&Batch{Seq: 1, Quotes: testQuotes(u, 3, 0)})
		return buf.Bytes()
	}

	cases := []struct {
		name    string
		stream  []byte
		wantEOF bool // torn-frame cases surface as ErrUnexpectedEOF
	}{
		{"unknown-type", rawFrame(FrameType(0xEE), nil), false},
		{"oversized-length", []byte{byte(FrameBatch), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, false},
		{"torn-header", []byte{byte(FrameBatch), 1, 0}, true},
		{"torn-payload", append([]byte{byte(FrameHeartbeat), 8, 0, 0, 0, 0, 0, 0, 0}, 1, 2, 3), true},
		{"batch-before-hello", goodBatch(), false},
		{"bad-checksum", func() []byte {
			f := rawFrame(FrameHeartbeat, []byte{1, 0, 0, 0, 0, 0, 0, 0})
			f[len(f)-1] ^= 0x40 // corrupt payload after the CRC was sealed
			return f
		}(), false},
		{"heartbeat-short-payload", rawFrame(FrameHeartbeat, []byte{1, 2}), false},
		{"hello-truncated-symbols", rawFrame(FrameHello, []byte{1, 0, 5, 0, 0, 0, 9}), false},
		{"batch-bad-count", append(goodHello(), rawFrame(FrameBatch, []byte{
			1, 0, 0, 0, 0, 0, 0, 0, // seq
			0, 0, 0, 0, // day
			200, 0, 0, 0, // count=200, no data
		})...), false},
		{"batch-symbol-out-of-range", append(goodHello(), func() []byte {
			// Hand-build a 1-quote batch with symbol index 9999.
			p := make([]byte, 0, batchHeaderSize+quoteWireSize)
			p = append(p, 1, 0, 0, 0, 0, 0, 0, 0) // seq
			p = append(p, 0, 0, 0, 0)             // day
			p = append(p, 1, 0, 0, 0)             // count
			p = append(p, 0x0F, 0x27)             // idx 9999
			p = append(p, make([]byte, quoteWireSize-2)...)
			return rawFrame(FrameBatch, p)
		}()...), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder(bytes.NewReader(tc.stream))
			var err error
			for err == nil {
				_, err = dec.Read()
			}
			if tc.wantEOF {
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
				}
				return
			}
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
		})
	}
}

func TestCodecDetectsEveryBitFlip(t *testing.T) {
	// Flip one bit at every byte position of an encoded hello+batch
	// stream; the decoder must report an error for every flip — never
	// silently deliver different quotes. This is the property the chaos
	// harness's byte-corruption mode leans on for its zero-loss e2e:
	// corruption always surfaces as a dropped connection, and the
	// collector refetches from its last good sequence number.
	u := testUniverse(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, u)
	if err := enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: u.Symbols()}); err != nil {
		t.Fatal(err)
	}
	quotes := testQuotes(u, 8, 1)
	if err := enc.WriteBatch(&Batch{Seq: 1, Day: 1, Quotes: quotes}); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEnd(&End{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	decodeAll := func(stream []byte) ([]Frame, error) {
		dec := NewDecoder(bytes.NewReader(stream))
		var out []Frame
		for {
			f, err := dec.Read()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			out = append(out, f)
		}
	}
	if frames, err := decodeAll(clean); err != nil || len(frames) != 3 {
		t.Fatalf("clean stream: %d frames, err=%v", len(frames), err)
	}

	for pos := 0; pos < len(clean); pos++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := bytes.Clone(clean)
			mut[pos] ^= bit
			if _, err := decodeAll(mut); err == nil {
				t.Fatalf("bit flip at byte %d (mask %#02x) decoded silently", pos, bit)
			}
		}
	}
}

func TestCodecCompactness(t *testing.T) {
	// The wire format should be materially smaller than CSV for the
	// same quotes — the point of a binary codec on a 50 GB/day feed.
	u := testUniverse(t)
	quotes := testQuotes(u, 1000, 0)

	var bin bytes.Buffer
	enc := NewEncoder(&bin, u)
	enc.WriteHello(&Hello{Version: 1, Symbols: u.Symbols()})
	if err := enc.WriteBatch(&Batch{Seq: 1, Quotes: quotes}); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	w := taq.NewWriter(&csv)
	for _, q := range quotes {
		w.Write(q)
	}
	w.Flush()
	if bin.Len() >= csv.Len() {
		t.Errorf("binary %d bytes ≥ CSV %d bytes", bin.Len(), csv.Len())
	}
}

// TestDecodeBatchReusesQuotes: decoding a batch frame allocates only
// the Batch itself; its quotes land in the memory the previous batch
// used, and still decode exactly.
func TestDecodeBatchReusesQuotes(t *testing.T) {
	u := testUniverse(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, u)
	if err := enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: u.Symbols()}); err != nil {
		t.Fatal(err)
	}
	helloLen := buf.Len()
	first, second := testQuotes(u, 300, 4), testQuotes(u, 200, 5)
	var ends []int
	for i, qs := range [][]taq.Quote{first, second} {
		if err := enc.WriteBatch(&Batch{Seq: uint64(i + 1), Day: qs[0].Day, Quotes: qs}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	stream := buf.Bytes()
	rd := bytes.NewReader(stream)
	dec := NewDecoder(rd)
	if _, err := dec.Read(); err != nil {
		t.Fatal(err)
	}
	var prev *taq.Quote
	for _, want := range [][]taq.Quote{first, second} {
		f, err := dec.Read()
		if err != nil {
			t.Fatal(err)
		}
		got := f.(*Batch).Quotes
		if len(got) != len(want) {
			t.Fatalf("%d quotes, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("quote %d: got %+v want %+v", i, got[i], want[i])
			}
		}
		if prev != nil && &got[0] != prev {
			t.Error("second batch did not reuse the first batch's quotes")
		}
		prev = &got[0]
	}
	// One batch frame, decoded again and again.
	frame := stream[helloLen:ends[0]]
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(frame)
		if _, err := dec.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("decoding one batch frame allocates %v times, want ≤ 1", allocs)
	}
}
