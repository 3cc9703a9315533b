package taq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuoteMidSpread(t *testing.T) {
	q := Quote{Bid: 10, Ask: 11}
	if q.Mid() != 10.5 {
		t.Errorf("Mid = %v", q.Mid())
	}
	if q.Spread() != 1 {
		t.Errorf("Spread = %v", q.Spread())
	}
	if q.Crossed() {
		t.Error("uncrossed quote reported crossed")
	}
	if !(Quote{Bid: 11, Ask: 10}).Crossed() {
		t.Error("crossed quote not detected")
	}
}

func TestQuoteValid(t *testing.T) {
	good := Quote{SeqTime: 100, Symbol: "IBM", Bid: 10, Ask: 10.1, BidSize: 1, AskSize: 1}
	if !good.Valid() {
		t.Error("good quote reported invalid")
	}
	cases := []Quote{
		{SeqTime: 100, Bid: 0, Ask: 10},      // zero bid
		{SeqTime: 100, Bid: 10, Ask: 0},      // zero ask
		{SeqTime: 100, Bid: 11, Ask: 10},     // crossed
		{SeqTime: -1, Bid: 10, Ask: 10.1},    // before open
		{SeqTime: 23400, Bid: 10, Ask: 10.1}, // after close
		{SeqTime: 100, Bid: 10, Ask: 10.1, BidSize: -1},
	}
	for i, q := range cases {
		if q.Valid() {
			t.Errorf("case %d: invalid quote reported valid: %+v", i, q)
		}
	}
}

func TestQuoteClock(t *testing.T) {
	q := Quote{SeqTime: 4}
	if got := q.Clock(); got != "09:30:04" {
		t.Errorf("Clock = %q, want 09:30:04", got)
	}
	q = Quote{SeqTime: 23399}
	if got := q.Clock(); got != "15:59:59" {
		t.Errorf("Clock = %q, want 15:59:59", got)
	}
}

func TestQuoteString(t *testing.T) {
	q := Quote{SeqTime: 4, Symbol: "NVDA", Bid: 16.38, Ask: 20.1, BidSize: 3, AskSize: 3}
	s := q.String()
	for _, want := range []string{"09:30:04", "NVDA", "16.38", "20.10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func sampleQuotes() []Quote {
	return []Quote{
		{Day: 0, SeqTime: 4, Symbol: "NVDA", Bid: 16.38, Ask: 20.1, BidSize: 3, AskSize: 3},
		{Day: 0, SeqTime: 4.5, Symbol: "ORCL", Bid: 19.56, Ask: 19.59, BidSize: 2, AskSize: 104},
		{Day: 1, SeqTime: 7200, Symbol: "BK", Bid: 41.11, Ask: 42.1, BidSize: 41, AskSize: 1},
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, q := range sampleQuotes() {
		if err := w.Write(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	r := NewReader(&buf, true)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleQuotes()
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Symbol != want[i].Symbol || got[i].Day != want[i].Day ||
			got[i].BidSize != want[i].BidSize || got[i].AskSize != want[i].AskSize {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		if diff := got[i].Bid - want[i].Bid; diff > 1e-4 || diff < -1e-4 {
			t.Errorf("record %d bid: got %v want %v", i, got[i].Bid, want[i].Bid)
		}
	}
}

// TestWriterMatchesFprintfFormat: Write formats each record with
// strconv, and its line must be the one fmt.Fprintf wrote with the
// format "%d,%.3f,%s,%.4f,%.4f,%d,%d\n" — on signed zeros, infinities,
// NaN, values past fmt's %e switch, half-way values, extreme integers
// and a spread of random prices.
func TestWriterMatchesFprintfFormat(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, -1e21, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.0005, 0.00005, 0.0015, 0.00025, 2.5e-4, 1.0005, -0.0005, 0.9999999, 123.45675, 23399.9995}
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		floats = append(floats, rng.Float64()*200, rng.NormFloat64()*1e4, math.Round(rng.Float64()*1e6)/1e4+0.00005)
	}
	ints := []int{0, 1, -1, math.MaxInt, math.MinInt, 100, 4096}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want strings.Builder
	want.WriteString(header + "\n")
	for i, f := range floats {
		q := Quote{Day: ints[i%len(ints)], SeqTime: f, Symbol: "S" + strconv.Itoa(i),
			Bid: floats[(i+1)%len(floats)], Ask: f, BidSize: ints[(i+3)%len(ints)], AskSize: i}
		if err := w.Write(q); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%d,%.3f,%s,%.4f,%.4f,%d,%d\n", q.Day, q.SeqTime, q.Symbol, q.Bid, q.Ask, q.BidSize, q.AskSize)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(want.String(), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d: %q, want %q", i, got[i], wantLines[i])
		}
	}
}

func TestReaderStrictBadRecord(t *testing.T) {
	in := "day,seqtime,symbol,bid,ask,bidsize,asksize\n0,1.0,IBM,10,10.1,1,1\nGARBAGE LINE\n"
	r := NewReader(strings.NewReader(in), true)
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err := r.Read()
	var bad *ErrBadRecord
	if !errors.As(err, &bad) {
		t.Fatalf("want ErrBadRecord, got %v", err)
	}
	if bad.Line != 3 {
		t.Errorf("bad line = %d, want 3", bad.Line)
	}
	if bad.Unwrap() == nil {
		t.Error("Unwrap returned nil")
	}
}

func TestReaderLenientSkipsBadRecords(t *testing.T) {
	in := "day,seqtime,symbol,bid,ask,bidsize,asksize\n" +
		"0,1.0,IBM,10,10.1,1,1\n" +
		"not,a,valid,row\n" +
		"0,2.0,,10,10.1,1,1\n" + // empty symbol
		"0,x,IBM,10,10.1,1,1\n" + // bad seqtime
		"0,3.0,IBM,10,10.2,2,2\n"
	r := NewReader(strings.NewReader(in), false)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(got), got)
	}
	if got[1].SeqTime != 3.0 {
		t.Errorf("second record seqtime = %v", got[1].SeqTime)
	}
}

func TestReaderMissingHeader(t *testing.T) {
	r := NewReader(strings.NewReader("0,1.0,IBM,10,10.1,1,1\n"), true)
	_, err := r.Read()
	var bad *ErrBadRecord
	if !errors.As(err, &bad) || bad.Line != 1 {
		t.Fatalf("want header ErrBadRecord at line 1, got %v", err)
	}
}

// TestReaderHeaderAfterLeadingBlankLine: blank lines before the header
// are skipped like blank lines anywhere else, so the header is checked
// on the first non-blank line rather than on physical line 1.
func TestReaderHeaderAfterLeadingBlankLine(t *testing.T) {
	in := "\n" + header + "\n0,1.0,IBM,10,10.1,1,1\n"
	got, err := NewReader(strings.NewReader(in), true).ReadAll()
	if err != nil || len(got) != 1 || got[0].Symbol != "IBM" {
		t.Fatalf("got %+v, err %v; want the one IBM record", got, err)
	}
}

// TestReaderMissingHeaderAfterLeadingBlankLine: a record on the first
// non-blank line is a missing header, reported at its physical line.
func TestReaderMissingHeaderAfterLeadingBlankLine(t *testing.T) {
	got, err := NewReader(strings.NewReader("\n0,1.0,IBM,10,10.1,1,1\n"), true).ReadAll()
	var bad *ErrBadRecord
	if !errors.As(err, &bad) || !errors.Is(err, errHeader) || bad.Line != 2 {
		t.Fatalf("got %+v, err %v; want the header error at line 2", got, err)
	}
}

func TestReaderEmptyStream(t *testing.T) {
	r := NewReader(strings.NewReader(""), true)
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestReaderBlankLinesIgnored(t *testing.T) {
	in := "day,seqtime,symbol,bid,ask,bidsize,asksize\n\n0,1.0,IBM,10,10.1,1,1\n\n"
	r := NewReader(strings.NewReader(in), true)
	got, err := r.ReadAll()
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d records, err %v", len(got), err)
	}
}

func TestUniverseBasics(t *testing.T) {
	u, err := NewUniverse([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Errorf("Len = %d", u.Len())
	}
	if u.NumPairs() != 3 {
		t.Errorf("NumPairs = %d", u.NumPairs())
	}
	if i, ok := u.Index("B"); !ok || i != 1 {
		t.Errorf("Index(B) = %d,%v", i, ok)
	}
	if _, ok := u.Index("Z"); ok {
		t.Error("Index(Z) should not exist")
	}
	if u.Symbol(2) != "C" {
		t.Errorf("Symbol(2) = %q", u.Symbol(2))
	}
	syms := u.Symbols()
	syms[0] = "MUTATED"
	if u.Symbol(0) != "A" {
		t.Error("Symbols() must return a copy")
	}
}

func TestUniverseErrors(t *testing.T) {
	if _, err := NewUniverse([]string{"A", "A"}); err == nil {
		t.Error("duplicate symbols should error")
	}
	if _, err := NewUniverse([]string{"A", ""}); err == nil {
		t.Error("empty symbol should error")
	}
}

func TestDefaultUniverse61(t *testing.T) {
	u := DefaultUniverse()
	if u.Len() != 61 {
		t.Fatalf("default universe has %d symbols, want 61 (paper)", u.Len())
	}
	if u.NumPairs() != 1830 {
		t.Fatalf("NumPairs = %d, want 1830 (61 choose 2, paper)", u.NumPairs())
	}
}

func TestPairIDCanonicalOrder(t *testing.T) {
	n := 7
	pairs := AllPairs(n)
	if len(pairs) != n*(n-1)/2 {
		t.Fatalf("AllPairs(%d) length = %d", n, len(pairs))
	}
	for rank, p := range pairs {
		if p.I >= p.J {
			t.Errorf("pair %v not ordered", p)
		}
		if id := PairID(p.I, p.J, n); id != rank {
			t.Errorf("PairID(%d,%d,%d) = %d, want %d", p.I, p.J, n, id, rank)
		}
		// Symmetric argument order must give the same id.
		if id := PairID(p.J, p.I, n); id != rank {
			t.Errorf("PairID(%d,%d,%d) = %d, want %d", p.J, p.I, n, id, rank)
		}
	}
}

func TestPairIDBijectionProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%40) + 2
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				id := PairID(i, j, n)
				if id < 0 || id >= n*(n-1)/2 || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		n := rng.Intn(50) + 1
		in := make([]Quote, n)
		for i := range in {
			bid := 1 + rng.Float64()*500
			in[i] = Quote{
				Day:     rng.Intn(20),
				SeqTime: float64(rng.Intn(23400)),
				Symbol:  "S" + string(rune('A'+rng.Intn(26))),
				Bid:     bid,
				Ask:     bid + rng.Float64(),
				BidSize: rng.Intn(100),
				AskSize: rng.Intn(100),
			}
			if err := w.Write(in[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out, err := NewReader(&buf, true).ReadAll()
		if err != nil || len(out) != n {
			return false
		}
		for i := range out {
			if out[i].Symbol != in[i].Symbol || out[i].Day != in[i].Day {
				return false
			}
			if d := out[i].Mid() - in[i].Mid(); d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPairFromIDInvertsPairID(t *testing.T) {
	for _, n := range []int{2, 3, 7, 61} {
		for id := 0; id < n*(n-1)/2; id++ {
			p := PairFromID(id, n)
			if p.I >= p.J || p.J >= n {
				t.Fatalf("n=%d id=%d: bad pair %v", n, id, p)
			}
			if back := PairID(p.I, p.J, n); back != id {
				t.Fatalf("n=%d id=%d: round-trip gave %d", n, id, back)
			}
		}
	}
}

// TestReaderMalformedInputTable stress-tests the reader against the
// malformed-line species discovered while building the binary feed
// codec: truncated lines, extra fields, binary garbage, non-finite
// numbers, and embedded NULs. Every case is checked in both strict
// mode (must surface an ErrBadRecord) and lenient mode (must be
// skipped without aborting the stream).
func TestReaderMalformedInputTable(t *testing.T) {
	const goodLine = "0,5.0,IBM,10,10.1,1,1"
	cases := []struct {
		name string
		line string
	}{
		{"truncated-mid-field", "0,5.0,IBM,10,10."},
		{"truncated-few-fields", "0,5.0,IBM"},
		{"extra-field", goodLine + ",99"},
		{"binary-garbage", "\x00\x01\x02\xff\xfe,,,,,,"},
		{"embedded-nul-day", "\x000,5.0,IBM,10,10.1,1,1"},
		{"nan-bid", "0,5.0,IBM,NaN,10.1,1,1"},
		{"inf-ask", "0,5.0,IBM,10,+Inf,1,1"},
		{"neg-inf-seqtime", "0,-Inf,IBM,10,10.1,1,1"},
		{"float-sizes", "0,5.0,IBM,10,10.1,1.5,1"},
		{"hex-price", "0,5.0,IBM,0xDEAD,10.1,1,1"},
		{"overflow-day", "99999999999999999999,5.0,IBM,10,10.1,1,1"},
		{"empty-fields", ",,,,,,"},
		{"only-commas-8", ",,,,,,,"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := header + "\n" + goodLine + "\n" + tc.line + "\n" + goodLine + "\n"

			// Strict: the bad line must surface as ErrBadRecord at line 3.
			r := NewReader(strings.NewReader(in), true)
			if _, err := r.Read(); err != nil {
				t.Fatalf("strict: good record 1: %v", err)
			}
			_, err := r.Read()
			var bad *ErrBadRecord
			if !errors.As(err, &bad) {
				t.Fatalf("strict: want ErrBadRecord, got %v", err)
			}
			if bad.Line != 3 {
				t.Errorf("strict: bad line = %d, want 3", bad.Line)
			}

			// Lenient: the bad line is dropped, the stream survives.
			got, err := NewReader(strings.NewReader(in), false).ReadAll()
			if err != nil {
				t.Fatalf("lenient: %v", err)
			}
			if len(got) != 2 {
				t.Fatalf("lenient: got %d records, want 2", len(got))
			}
		})
	}
}

// TestReaderTruncatedStream checks that a stream cut off mid-line (a
// torn file tail or dropped connection) yields the intact prefix.
func TestReaderTruncatedStream(t *testing.T) {
	in := header + "\n0,1.0,IBM,10,10.1,1,1\n0,2.0,IBM,10,10"
	got, err := NewReader(strings.NewReader(in), false).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SeqTime != 1.0 {
		t.Fatalf("got %+v, want the single intact record", got)
	}
}

func TestPairFromIDPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range id")
		}
	}()
	PairFromID(3, 3) // n=3 has ids 0..2
}

func TestSyntheticSymbols(t *testing.T) {
	if got := SyntheticSymbols(5); len(got) != 5 || got[0] != DefaultSymbols()[0] {
		t.Fatalf("small universe should prefix the default tickers: %v", got)
	}
	syms := SyntheticSymbols(200)
	if len(syms) != 200 {
		t.Fatalf("len = %d, want 200", len(syms))
	}
	if syms[60] != DefaultSymbols()[60] || syms[61] != "S0061" || syms[199] != "S0199" {
		t.Fatalf("synthetic tail malformed: %q %q %q", syms[60], syms[61], syms[199])
	}
	seen := make(map[string]bool, len(syms))
	for _, s := range syms {
		if seen[s] {
			t.Fatalf("duplicate symbol %q", s)
		}
		seen[s] = true
	}
	// Determinism in n: a larger universe extends, never reshuffles.
	big := SyntheticSymbols(400)
	for i, s := range syms {
		if big[i] != s {
			t.Fatalf("universe not prefix-stable at %d: %q vs %q", i, s, big[i])
		}
	}
}

// FuzzReader feeds arbitrary bytes to a strict and a lenient reader.
// Neither may panic. Every quote either returns has a finite SeqTime,
// Bid and Ask and a non-empty symbol, and writing the quotes with
// Writer then reading them back is a fixed point after one pass: the
// first write rounds to the CSV's fixed decimals, and a second round
// trip reproduces the same bytes.
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		header + "\n0,1.0,IBM,10,10.1,1,1\n0,2.5,AA,20.25,20.5,3,4\n",
		"\n" + header + "\n\n0,1.0,IBM,10,10.1,1,1\n\n",
		"\n0,1.0,IBM,10,10.1,1,1\n",
		header + "\nnot,a,valid,row\n0,x,IBM,10,10.1,1,1\n0,NaN,IBM,10,10.1,1,1\n",
		header + "\n-3,-0.00001,S P,1e300,-Inf,-1,0\n7,23399.9996,Z,0.00005,1e-9,2,2\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, strict := range []bool{true, false} {
			quotes, _ := NewReader(bytes.NewReader(data), strict).ReadAll()
			for _, q := range quotes {
				for _, v := range []float64{q.SeqTime, q.Bid, q.Ask} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("strict=%v: non-finite field in %+v", strict, q)
					}
				}
				if q.Symbol == "" {
					t.Fatalf("strict=%v: empty symbol in %+v", strict, q)
				}
			}
			once := writeQuotes(t, quotes)
			again, err := NewReader(bytes.NewReader(once), true).ReadAll()
			if err != nil || len(again) != len(quotes) {
				t.Fatalf("strict=%v: re-read %d of %d quotes, err %v", strict, len(again), len(quotes), err)
			}
			if twice := writeQuotes(t, again); !bytes.Equal(once, twice) {
				t.Fatalf("strict=%v: second round trip differs:\n%q\n%q", strict, once, twice)
			}
		}
	})
}

func writeQuotes(t *testing.T, quotes []Quote) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, q := range quotes {
		if err := w.Write(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
