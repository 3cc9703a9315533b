package sweep

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"marketminer/internal/feed"
	"marketminer/internal/strategy"
)

// fuzzHeader is a small v2 journal header: 4 stocks (6 pairs) in
// 2-pair blocks, one day, one level, Pearson only — 3 units.
func fuzzHeader() Header {
	return Header{
		Schema: JournalSchema, Fingerprint: "00f0220f0220f000", ShardIndex: 0, ShardCount: 1,
		BlockSize: 2, Symbols: []string{"AAA", "BBB", "CCC", "DDD"}, Days: 1,
		Levels: strategy.BaseGrid()[:1], Types: []string{"Pearson"}, UnitsTotal: 3,
	}
}

// fuzzEntries are the intact records a fuzzed journal starts with.
var fuzzEntries = []Entry{
	{U: 0, Rets: [][]float64{{0.25, -0.5}, {}}},
	{U: 2, Rets: [][]float64{{}, {1e-3}}},
	{U: 1, Rets: [][]float64{{-0.125}, {0.5, 0.75, -1}}},
}

// journalBytes is a journal holding h and entries, as Journal writes it.
func journalBytes(t testing.TB, h Header, entries []Entry) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.journal")
	j, _, _, err := OpenJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawFrame assembles a wire frame around payload with a valid CRC — a
// record that passes the checksum but lies in its body.
func rawFrame(typ feed.FrameType, payload []byte) []byte {
	b := make([]byte, 9, 9+len(payload))
	b[0] = byte(typ)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(payload)))
	crc := crc32.Update(0, crc32.IEEETable, b[:1])
	binary.LittleEndian.PutUint32(b[5:], crc32.Update(crc, crc32.IEEETable, payload))
	return append(b, payload...)
}

// FuzzJournal opens journals made of a valid v2 header, some intact
// records and then arbitrary bytes — the file a crash, a bad disk or a
// stray writer can leave. Whatever the tail, opening must not panic or
// fail, must keep every intact record, must cut the file back to a
// prefix no longer than it was, and must not let a length field size an
// allocation beyond feed.MaxFrameSize; the healed file must then reopen
// clean with the same units.
func FuzzJournal(f *testing.F) {
	h := fuzzHeader()
	// prefixes[k] is the journal holding the first k records.
	prefixes := make([][]byte, len(fuzzEntries)+1)
	for k := range prefixes {
		prefixes[k] = journalBytes(f, h, fuzzEntries[:k])
	}
	records := prefixes[3][len(prefixes[0]):]
	third := prefixes[3][len(prefixes[2]):]

	var wire bytes.Buffer
	enc := feed.NewEncoder(&wire, nil)
	frame := func(write func() error) []byte {
		wire.Reset()
		if err := write(); err != nil {
			f.Fatal(err)
		}
		return append([]byte(nil), wire.Bytes()...)
	}
	flipped := append([]byte(nil), third...)
	flipped[len(flipped)-3] ^= 0x04
	lyingRows := make([]byte, 8*4+1+4)
	binary.LittleEndian.PutUint32(lyingRows[33:], feed.MaxResultFloats) // rows, none present

	f.Add(uint8(3), []byte{})
	f.Add(uint8(2), third[:len(third)-3])                                                       // torn
	f.Add(uint8(2), third[:5])                                                                  // torn inside the frame header
	f.Add(uint8(2), flipped)                                                                    // bit-flipped
	f.Add(uint8(2), []byte{byte(feed.FrameResult), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})         // oversized length
	f.Add(uint8(2), []byte{byte(feed.FrameResult), 0, 0, 0, 0x01, 0, 0, 0, 0, 1, 2})            // length = MaxFrameSize, torn
	f.Add(uint8(2), frame(func() error { return enc.WriteHeartbeat(&feed.Heartbeat{Seq: 1}) })) // wrong frame type
	f.Add(uint8(2), frame(func() error { return enc.WriteResult(&feed.Result{Unit: 3, Rets: [][]float64{{}, {}}}) }))
	f.Add(uint8(2), rawFrame(feed.FrameResult, lyingRows))
	f.Add(uint8(3), records)                          // every record again: duplicates are valid
	f.Add(uint8(1), []byte("{\"crc\":0,\"e\":{}}\n")) // a v1 line in a v2 file
	f.Add(uint8(0), []byte("!!not a frame at all!!\n"))

	f.Fuzz(func(t *testing.T, intact uint8, tail []byte) {
		k := int(intact) % len(prefixes)
		prefix := prefixes[k]
		data := append(append([]byte(nil), prefix...), tail...)
		path := filepath.Join(t.TempDir(), "f.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, done, c, err := OpenJournal(path, h)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("open with a valid header failed: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		// One frame buffer of at most MaxFrameSize, decoded rows no larger
		// than the bytes they came from, and fixed overheads: the reader's
		// header-sized buffer plus change.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > feed.MaxFrameSize+16*uint64(len(data))+2*maxHeaderLine {
			t.Fatalf("opening a %d-byte journal allocated %d bytes", len(data), grew)
		}
		size := int64(len(data))
		if c != nil {
			if c.Offset < int64(len(prefix)) || c.Offset > size {
				t.Fatalf("corruption at byte %d outside [%d, %d]: %v", c.Offset, len(prefix), size, c)
			}
			size = c.Offset
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Fatalf("healed journal is %d bytes, want %d", fi.Size(), size)
		}
		for _, e := range fuzzEntries[:k] {
			if _, ok := done[e.U]; !ok {
				t.Fatalf("intact unit %d lost", e.U)
			}
		}

		j, again, c, err := OpenJournal(path, h)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if c != nil {
			t.Fatalf("healed journal still corrupt: %v", c)
		}
		if !reflect.DeepEqual(done, again) {
			t.Fatalf("healed journal holds units %v, first open found %v", again, done)
		}
	})
}
