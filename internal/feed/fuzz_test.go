package feed

import (
	"bytes"
	"io"
	"testing"

	"marketminer/internal/taq"
)

// FuzzDecoder throws arbitrary byte streams at the frame decoder. The
// decoder's contract under corruption is: return an error (or a clean
// EOF), never panic, never allocate proportionally to a lying length
// field. The seed corpus is the frame mix the chaos e2e exercises —
// every frame type the quote feed, the signal broker and the sweep
// farm speak, plus truncated, bit-flipped and length-corrupted
// variants of each.
func FuzzDecoder(f *testing.F) {
	u, err := newSeedUniverse()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, u)
	seed := func(write func() error) []byte {
		buf.Reset()
		if err := write(); err != nil {
			f.Fatal(err)
		}
		return append([]byte(nil), buf.Bytes()...)
	}

	quotes := testQuotesForFuzz(u, 16)
	whole, part := testInterval(8, 0, 8, 16), testInterval(915, 512, 403, 915*3)
	frames := [][]byte{
		seed(func() error { return enc.WriteHello(&Hello{Version: ProtocolVersion, Symbols: u.Symbols()}) }),
		seed(func() error { return enc.WriteBatch(&Batch{Seq: 1, Day: 2, Quotes: quotes}) }),
		seed(func() error { return enc.WriteHeartbeat(&Heartbeat{Seq: 3}) }),
		seed(func() error { return enc.WriteEnd(&End{Seq: 4}) }),
		seed(func() error { return enc.WriteSubscribe(&Subscribe{From: 5}) }),
		seed(func() error {
			return enc.WriteGroupSub(&GroupSub{Group: "g", Member: "m-0", FromStart: true,
				Offsets: []PartitionOffset{{Partition: 1, Offset: 7}}})
		}),
		seed(func() error {
			return enc.WriteAssign(&Assign{Epoch: 2, Stocks: 61, NumPartitions: 4, Partitions: []uint16{0, 2}})
		}),
		seed(func() error { return enc.WriteAssign(&Assign{Epoch: 3, Stocks: MaxStocks, NumPartitions: 1}) }),
		seed(func() error { return enc.WriteSnapshot(&SnapshotFrame{Partition: 1, Interval: whole}) }),
		seed(func() error { return enc.WriteDelta(&DeltaFrame{Partition: 1, Interval: whole}) }),
		seed(func() error { return enc.WriteDelta(&DeltaFrame{Partition: 1, Interval: part}) }),
		seed(func() error { return enc.WriteDelta(&DeltaFrame{Partition: 1, Sealed: true, Interval: whole.From(7)}) }),
		seed(func() error { return enc.WriteDelta(&DeltaFrame{Partition: 1, Sealed: true}) }),
		seed(func() error { return enc.WriteAck(&AckFrame{Partition: 1, Offset: 8}) }),
		// Sweep-farm extension frames, including the rejoin fields and
		// the Refuse/ResultAck types the coordinator-recovery path adds.
		seed(func() error {
			return enc.WriteJoin(&Join{Version: ProtocolVersion, Name: "w-0", Fingerprint: "00deadbeef00cafe",
				PriorSession: 7, PriorEpoch: 2, HeldLeases: []uint64{3, 9}})
		}),
		seed(func() error { return enc.WriteGrant(&Grant{Session: 7, Epoch: 2, UnitsTotal: 96, UnitsDone: 14}) }),
		seed(func() error { return enc.WriteRefuse(&Refuse{Code: RefuseFingerprint, Reason: "mismatch"}) }),
		seed(func() error {
			return enc.WriteLease(&Lease{ID: 3, Gen: 4, Day: 1, Block: 2, TTLMillis: 5000, Params: []uint16{0, 5}})
		}),
		seed(func() error {
			return enc.WriteResult(&Result{Lease: 3, Gen: 4, Epoch: 2, Unit: 17, Flags: ResultRecovered,
				Rets: [][]float64{{0.25, -0.5}, {}}})
		}),
		seed(func() error { return enc.WriteResultAck(&ResultAck{Unit: 17}) }),
		seed(func() error { return enc.WriteSteal(&Steal{Done: 12}) }),
	}

	// A hello followed by a batch (the decoder's symbol table path),
	// and the full session prefix the chaos e2e drives.
	var session []byte
	for _, fr := range frames {
		session = append(session, fr...)
	}
	f.Add(session)
	for _, fr := range frames {
		f.Add(fr)
		if len(fr) > frameHeaderSize {
			f.Add(fr[:frameHeaderSize+1]) // torn payload
		}
		flipped := append([]byte(nil), fr...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
		lied := append([]byte(nil), fr...)
		lied[1] ^= 0xff // length prefix corruption
		f.Add(lied)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			fr, err := dec.Read()
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				return // protocol error: acceptable, just must not panic
			}
			if fr == nil {
				t.Fatal("nil frame with nil error")
			}
			// A subscriber sizes its pair table from this one field.
			if a, ok := fr.(*Assign); ok && (a.Stocks < 2 || a.Stocks > MaxStocks) {
				t.Fatalf("decoded an Assign of %d stocks", a.Stocks)
			}
		}
	})
}

func newSeedUniverse() (*taq.Universe, error) {
	return taq.NewUniverse([]string{"AAA", "BBB", "CCC", "DDD"})
}

func testQuotesForFuzz(u *taq.Universe, n int) []taq.Quote {
	out := make([]taq.Quote, n)
	for i := range out {
		out[i] = taq.Quote{
			Day:     1,
			Symbol:  u.Symbol(i % u.Len()),
			SeqTime: float64(i),
			Bid:     100 + float64(i)*0.5,
			Ask:     100.5 + float64(i)*0.5,
			BidSize: i,
			AskSize: i * 2,
		}
	}
	return out
}
