package feed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"
)

// testInterval builds signals [first, first+n) of a pairs-wide
// interval whose first signal has offset base+1.
func testInterval(pairs, first, n int, base uint64) Interval {
	iv := Interval{S: 30, Base: base, Pairs: uint32(pairs), First: uint32(first),
		C: make([]float64, n), Cbar: make([]float64, n), Kind: make([]uint8, n)}
	for i := 0; i < n; i++ {
		iv.C[i] = math.Cos(float64(first+i) * 0.1)
		iv.Cbar[i] = iv.C[i] + 0.01
		iv.Kind[i] = uint8((first + i) % 3)
	}
	return iv
}

func TestBrokerFramesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	whole, part := testInterval(5, 0, 5, 10), testInterval(915, 512, 403, 915*7)

	want := []Frame{
		&GroupSub{Group: "g", Member: "m-1", FromStart: true,
			Offsets: []PartitionOffset{{Partition: 0, Offset: 10}, {Partition: 3, Offset: 0}}},
		&GroupSub{Group: "dash", Member: "viewer"},
		&Assign{Epoch: 4, Stocks: 61, NumPartitions: 8, Partitions: []uint16{1, 5, 7}},
		&Assign{Epoch: 5, Stocks: 2, NumPartitions: 1},
		&Assign{Epoch: 6, Stocks: MaxStocks, NumPartitions: 65535, Partitions: []uint16{65534}},
		&SnapshotFrame{Partition: 2, Interval: whole},
		&DeltaFrame{Partition: 6, Interval: whole},
		&DeltaFrame{Partition: 6, Interval: part},
		&DeltaFrame{Partition: 6, Interval: testInterval(5, 4, 1, 10)},
		&DeltaFrame{Partition: 6, Sealed: true},
		&AckFrame{Partition: 1, Offset: 99},
	}
	for i, f := range want {
		var err error
		switch fr := f.(type) {
		case *GroupSub:
			err = enc.WriteGroupSub(fr)
		case *Assign:
			err = enc.WriteAssign(fr)
		case *SnapshotFrame:
			err = enc.WriteSnapshot(fr)
		case *DeltaFrame:
			err = enc.WriteDelta(fr)
		case *AckFrame:
			err = enc.WriteAck(fr)
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		// Empty slices decode as non-nil empty or nil; normalise.
		if !reflect.DeepEqual(normaliseFrame(got), normaliseFrame(w)) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, w)
		}
	}
}

func normaliseFrame(f Frame) Frame {
	switch fr := f.(type) {
	case *GroupSub:
		c := *fr
		if len(c.Offsets) == 0 {
			c.Offsets = nil
		}
		return &c
	case *Assign:
		c := *fr
		if len(c.Partitions) == 0 {
			c.Partitions = nil
		}
		return &c
	case *DeltaFrame:
		c := *fr
		if c.Len() == 0 {
			c.C, c.Cbar, c.Kind = nil, nil, nil
		}
		return &c
	}
	return f
}

// reframe re-patches a (possibly truncated or mutated) raw frame's
// length prefix and CRC so the corruption reaches the payload decoder
// instead of tripping the checksum.
func reframe(b []byte) []byte {
	payload := len(b) - frameHeaderSize
	binary.LittleEndian.PutUint32(b[1:5], uint32(payload))
	crc := crc32.Update(0, crc32.IEEETable, b[:1])
	crc = crc32.Update(crc, crc32.IEEETable, b[frameHeaderSize:])
	binary.LittleEndian.PutUint32(b[5:frameHeaderSize], crc)
	return b
}

func TestBrokerFramesRejectMalformed(t *testing.T) {
	one := testInterval(7, 3, 1, 14)
	cases := []struct {
		name  string
		write func(enc *Encoder) error
		mut   func(frame []byte) []byte
	}{
		{"group-sub truncated member", func(e *Encoder) error {
			return e.WriteGroupSub(&GroupSub{Group: "g", Member: "member"})
		}, func(b []byte) []byte { return reframe(b[:len(b)-3]) }},
		{"group-sub bad flag", func(e *Encoder) error {
			return e.WriteGroupSub(&GroupSub{Group: "g", Member: "m"})
		}, func(b []byte) []byte {
			b[frameHeaderSize+2+1+2+1] = 7 // from-start flag position
			return reframe(b)
		}},
		{"assign truncated", func(e *Encoder) error {
			return e.WriteAssign(&Assign{Epoch: 1, Stocks: 8, NumPartitions: 4, Partitions: []uint16{0, 1}})
		}, func(b []byte) []byte { return reframe(b[:len(b)-2]) }},
		{"assign of a one-stock universe", func(e *Encoder) error {
			return e.WriteAssign(&Assign{Epoch: 1, Stocks: 8, NumPartitions: 4})
		}, func(b []byte) []byte {
			b[frameHeaderSize+8] = 1 // stocks field
			return reframe(b)
		}},
		{"assign of an oversized universe", func(e *Encoder) error {
			return e.WriteAssign(&Assign{Epoch: 1, Stocks: 8, NumPartitions: 4})
		}, func(b []byte) []byte {
			b[frameHeaderSize+8+3] = 1 // stocks field, top byte
			return reframe(b)
		}},
		{"assign one stock past the bound", func(e *Encoder) error {
			return e.WriteAssign(&Assign{Epoch: 1, Stocks: MaxStocks, NumPartitions: 4})
		}, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameHeaderSize+8:], MaxStocks+1)
			return reframe(b)
		}},
		{"assign of no partitions", func(e *Encoder) error {
			return e.WriteAssign(&Assign{Epoch: 1, Stocks: 8, NumPartitions: 1})
		}, func(b []byte) []byte {
			b[frameHeaderSize+12] = 0 // partition count
			return reframe(b)
		}},
		{"snapshot count lies", func(e *Encoder) error {
			return e.WriteSnapshot(&SnapshotFrame{Partition: 0, Interval: one})
		}, func(b []byte) []byte {
			b[frameHeaderSize+2+20]++ // count field
			return reframe(b)
		}},
		{"snapshot truncated in the kind column", func(e *Encoder) error {
			return e.WriteSnapshot(&SnapshotFrame{Partition: 0, Interval: testInterval(7, 0, 7, 0)})
		}, func(b []byte) []byte { return reframe(b[:len(b)-1]) }},
		{"snapshot with a signal too many", func(e *Encoder) error {
			return e.WriteSnapshot(&SnapshotFrame{Partition: 0, Interval: one})
		}, func(b []byte) []byte { return reframe(append(b, make([]byte, signalWireSize)...)) }},
		{"snapshot of nothing", func(e *Encoder) error {
			return e.WriteDelta(&DeltaFrame{Partition: 0, Sealed: true})
		}, func(b []byte) []byte {
			// A sealed empty delta minus its flag byte is a zero-count
			// snapshot payload.
			b[0] = byte(FrameSnapshot)
			return reframe(append(b[:frameHeaderSize+2], b[frameHeaderSize+3:]...))
		}},
		{"delta bad sealed flag", func(e *Encoder) error {
			return e.WriteDelta(&DeltaFrame{Partition: 0, Interval: one})
		}, func(b []byte) []byte {
			b[frameHeaderSize+2] = 9
			return reframe(b)
		}},
		{"delta of nothing, unsealed", func(e *Encoder) error {
			return e.WriteDelta(&DeltaFrame{Partition: 0, Sealed: true})
		}, func(b []byte) []byte {
			b[frameHeaderSize+2] = 0
			return reframe(b)
		}},
		{"delta range past the interval", func(e *Encoder) error {
			return e.WriteDelta(&DeltaFrame{Partition: 0, Interval: testInterval(7, 6, 1, 14)})
		}, func(b []byte) []byte {
			b[frameHeaderSize+3+16]++ // first field: 7+1 > 7 pairs
			return reframe(b)
		}},
		{"delta range wraps uint32", func(e *Encoder) error {
			return e.WriteDelta(&DeltaFrame{Partition: 0, Interval: one})
		}, func(b []byte) []byte {
			copy(b[frameHeaderSize+3+16:], []byte{0xff, 0xff, 0xff, 0xff}) // first = 2³²−1
			return reframe(b)
		}},
		{"delta header only", func(e *Encoder) error {
			return e.WriteDelta(&DeltaFrame{Partition: 0, Interval: one})
		}, func(b []byte) []byte { return reframe(b[:frameHeaderSize+3+intervalHeaderSize-1]) }},
		{"ack short", func(e *Encoder) error {
			return e.WriteAck(&AckFrame{Partition: 0, Offset: 1})
		}, func(b []byte) []byte { return reframe(b[:len(b)-1]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := NewEncoder(&buf, nil)
			if err := tc.write(enc); err != nil {
				t.Fatal(err)
			}
			raw := tc.mut(append([]byte(nil), buf.Bytes()...))
			if _, err := NewDecoder(bytes.NewReader(raw)).Read(); err == nil {
				t.Fatal("malformed frame accepted")
			}
		})
	}
}

// TestEncoderRejectsUnsendableIntervals: what the decoder refuses, the
// encoder never emits.
func TestEncoderRejectsUnsendableIntervals(t *testing.T) {
	ragged := testInterval(7, 0, 3, 0)
	ragged.Kind = ragged.Kind[:2]
	past := testInterval(7, 5, 2, 0)
	past.First = 6
	huge := Interval{Pairs: math.MaxUint32, C: make([]float64, MaxSignalRecs+1),
		Cbar: make([]float64, MaxSignalRecs+1), Kind: make([]uint8, MaxSignalRecs+1)}
	enc := NewEncoder(io.Discard, nil)
	for name, err := range map[string]error{
		"ragged columns":       enc.WriteDelta(&DeltaFrame{Interval: ragged}),
		"range past the pairs": enc.WriteDelta(&DeltaFrame{Interval: past}),
		"oversized delta":      enc.WriteDelta(&DeltaFrame{Interval: huge}),
		"empty unsealed delta": enc.WriteDelta(&DeltaFrame{}),
		"oversized universe":   enc.WriteAssign(&Assign{Stocks: MaxStocks + 1, NumPartitions: 1}),
		"empty snapshot":       enc.WriteSnapshot(&SnapshotFrame{}),
	} {
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: encoder returned %v, want a protocol error", name, err)
		}
	}
	if err := enc.WriteDelta(&DeltaFrame{Sealed: true}); err != nil {
		t.Errorf("empty sealed delta: %v", err)
	}
}

// TestIntervalOffsetArithmetic pins the contract the columns are read
// by: index i of a range is pair number First+i at offset
// Base+First+i+1, and From shares the columns.
func TestIntervalOffsetArithmetic(t *testing.T) {
	iv := testInterval(915, 0, 915, 915*7)
	if iv.Len() != 915 || iv.End() != 915*8 {
		t.Fatalf("whole interval: len %d end %d", iv.Len(), iv.End())
	}
	tail := iv.From(512)
	if tail.First != 512 || tail.Len() != 403 || tail.End() != iv.End() || tail.Base != iv.Base || tail.Pairs != 915 {
		t.Fatalf("From(512) = first %d len %d end %d", tail.First, tail.Len(), tail.End())
	}
	if &tail.C[0] != &iv.C[512] || &tail.Cbar[0] != &iv.Cbar[512] || &tail.Kind[0] != &iv.Kind[512] {
		t.Fatal("From copied the columns")
	}
	if empty := iv.From(915); empty.Len() != 0 || empty.End() != iv.End() {
		t.Fatalf("From(len) = len %d end %d", empty.Len(), empty.End())
	}
}

// BenchmarkIntervalFrameCodec encodes and decodes one whole-interval
// Delta of a 915-pair partition (half of 61 stocks' pairs) per
// iteration.
func BenchmarkIntervalFrameCodec(b *testing.B) {
	const pairs = 915
	frame := &DeltaFrame{Partition: 1, Interval: testInterval(pairs, 0, pairs, 0)}
	var wire bytes.Buffer
	enc, dec := NewEncoder(&wire, nil), NewDecoder(&wire)
	const wireSize = frameHeaderSize + 3 + intervalHeaderSize + pairs*signalWireSize
	b.SetBytes(wireSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.Base = uint64(i * pairs)
		if err := enc.WriteDelta(frame); err != nil {
			b.Fatal(err)
		}
		got, err := dec.Read()
		if err != nil || got.(*DeltaFrame).End() != frame.End() {
			b.Fatalf("decoded %+v, %v", got, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/signal")
	b.ReportMetric(float64(wireSize)/pairs, "B/signal")
}
