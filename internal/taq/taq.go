// Package taq defines the Trade-and-Quote (TAQ) data model used by the
// MarketMiner reproduction, plus streaming CSV readers and writers.
//
// The paper's raw input is NYSE TAQ quote data (Table II): timestamped
// bid/ask prices and sizes per symbol. A single day of uncompressed TAQ
// is ~50 GB, so the reader is strictly streaming: records are decoded
// one at a time and handed to the caller, never accumulated.
package taq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// MarketOpen is the 09:30 open of a regular US equities trading day;
// the paper's time grid spans the TradingDaySec seconds from it to the
// 16:00 close.
const (
	MarketOpen    = 9*time.Hour + 30*time.Minute // 09:30:00
	TradingDaySec = 23400                        // seconds between open and close
)

// Quote is one TAQ quote record, mirroring the columns of Table II.
// SeqTime is seconds since market open (0 .. 23399), which is the
// native resolution of the paper's dataset.
type Quote struct {
	Day     int     // trading-day index within the dataset (0-based)
	SeqTime float64 // seconds since 09:30:00
	Symbol  string
	Bid     float64
	Ask     float64
	BidSize int
	AskSize int
}

// Mid returns the bid-ask midpoint (BAM), the paper's price proxy:
// "we use the bid-ask midpoint (BAM) as an approximation to the stock
// price".
func (q Quote) Mid() float64 { return (q.Bid + q.Ask) / 2 }

// Spread returns the quoted bid-ask spread.
func (q Quote) Spread() float64 { return q.Ask - q.Bid }

// Crossed reports whether the quote is crossed (bid > ask), which is
// one of the error conditions the cleaning stage rejects.
func (q Quote) Crossed() bool { return q.Bid > q.Ask }

// Valid performs basic structural validation: positive prices and
// sizes, uncrossed market, in-session timestamp.
func (q Quote) Valid() bool {
	return q.Bid > 0 && q.Ask > 0 && !q.Crossed() &&
		q.BidSize >= 0 && q.AskSize >= 0 &&
		q.SeqTime >= 0 && q.SeqTime < TradingDaySec
}

// Clock formats SeqTime as a wall-clock HH:MM:SS string (Table II
// style), assuming a 09:30 open.
func (q Quote) Clock() string {
	t := MarketOpen + time.Duration(q.SeqTime*float64(time.Second))
	h := int(t.Hours())
	m := int(t.Minutes()) % 60
	s := int(t.Seconds()) % 60
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}

// String renders the quote as a Table II row.
func (q Quote) String() string {
	return fmt.Sprintf("%s %-6s bid=%.2f ask=%.2f bsz=%d asz=%d",
		q.Clock(), q.Symbol, q.Bid, q.Ask, q.BidSize, q.AskSize)
}

// header is the canonical CSV header written and expected by this
// package.
const header = "day,seqtime,symbol,bid,ask,bidsize,asksize"

// Writer streams quotes to an io.Writer in CSV form. It buffers
// internally; callers must call Flush (or Close via the caller's file)
// when done.
type Writer struct {
	bw      *bufio.Writer
	line    []byte // the record being formatted, reused
	wrote   int
	started bool
}

// NewWriter returns a Writer emitting the canonical CSV schema to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one quote record.
func (w *Writer) Write(q Quote) error {
	if !w.started {
		if _, err := w.bw.WriteString(header + "\n"); err != nil {
			return err
		}
		w.started = true
	}
	// The bytes of "%d,%.3f,%s,%.4f,%.4f,%d,%d\n", formatted without
	// fmt's per-call reflection and boxing.
	b := strconv.AppendInt(w.line[:0], int64(q.Day), 10)
	b = strconv.AppendFloat(append(b, ','), q.SeqTime, 'f', 3, 64)
	b = append(append(append(b, ','), q.Symbol...), ',')
	b = strconv.AppendFloat(b, q.Bid, 'f', 4, 64)
	b = strconv.AppendFloat(append(b, ','), q.Ask, 'f', 4, 64)
	b = strconv.AppendInt(append(b, ','), int64(q.BidSize), 10)
	b = strconv.AppendInt(append(b, ','), int64(q.AskSize), 10)
	w.line = append(b, '\n')
	_, err := w.bw.Write(w.line)
	if err == nil {
		w.wrote++
	}
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.wrote }

// Flush drains the internal buffer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// ErrBadRecord wraps a malformed CSV line with its line number.
type ErrBadRecord struct {
	Line int
	Err  error
}

func (e *ErrBadRecord) Error() string {
	return fmt.Sprintf("taq: bad record at line %d: %v", e.Line, e.Err)
}

func (e *ErrBadRecord) Unwrap() error { return e.Err }

// Reader streams quotes from CSV produced by Writer. It tolerates and
// reports malformed lines individually so that one corrupt record does
// not abort a 50 GB scan — mirroring the paper's observation that raw
// TAQ contains transmission and typing errors.
type Reader struct {
	sc        *bufio.Scanner
	line      int
	strict    bool
	sawHeader bool
}

// NewReader wraps r. The first non-blank line must be the header, in
// either mode. If strict is true, malformed records are returned as
// errors; otherwise they are silently skipped.
func NewReader(r io.Reader, strict bool) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &Reader{sc: sc, strict: strict}
}

var errHeader = errors.New("missing or malformed header")

// Read returns the next quote, io.EOF at end of stream, or an
// *ErrBadRecord in strict mode.
func (r *Reader) Read() (Quote, error) {
	for r.sc.Scan() {
		r.line++
		text := strings.TrimSpace(r.sc.Text())
		if text == "" {
			continue
		}
		if !r.sawHeader {
			if text != header {
				return Quote{}, &ErrBadRecord{Line: r.line, Err: errHeader}
			}
			r.sawHeader = true
			continue
		}
		q, err := parseLine(text)
		if err != nil {
			if r.strict {
				return Quote{}, &ErrBadRecord{Line: r.line, Err: err}
			}
			continue
		}
		return q, nil
	}
	if err := r.sc.Err(); err != nil {
		return Quote{}, err
	}
	return Quote{}, io.EOF
}

// ReadAll drains the stream into a slice. Intended for tests and small
// samples only; production paths should loop over Read.
func (r *Reader) ReadAll() ([]Quote, error) {
	var out []Quote
	for {
		q, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, q)
	}
}

// ReadDay streams one day's quotes out of a CSV file written by Writer
// (malformed records are skipped) and derives the universe from the
// symbols seen, in first-seen order. It fails when the day quotes
// fewer than two symbols.
func ReadDay(path string, day int) ([]Quote, *Universe, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r := NewReader(f, false)
	var quotes []Quote
	seen := map[string]bool{}
	var symbols []string
	for {
		q, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if q.Day != day {
			continue
		}
		quotes = append(quotes, q)
		if !seen[q.Symbol] {
			seen[q.Symbol] = true
			symbols = append(symbols, q.Symbol)
		}
	}
	if len(symbols) < 2 {
		return nil, nil, fmt.Errorf("day %d has quotes for %d symbols; need ≥ 2", day, len(symbols))
	}
	uni, err := NewUniverse(symbols)
	if err != nil {
		return nil, nil, err
	}
	return quotes, uni, nil
}

func parseLine(text string) (Quote, error) {
	fields := strings.Split(text, ",")
	if len(fields) != 7 {
		return Quote{}, fmt.Errorf("want 7 fields, got %d", len(fields))
	}
	var q Quote
	var err error
	if q.Day, err = strconv.Atoi(fields[0]); err != nil {
		return Quote{}, fmt.Errorf("day: %w", err)
	}
	if q.SeqTime, err = parseFinite(fields[1]); err != nil {
		return Quote{}, fmt.Errorf("seqtime: %w", err)
	}
	q.Symbol = fields[2]
	if q.Symbol == "" {
		return Quote{}, errors.New("empty symbol")
	}
	if q.Bid, err = parseFinite(fields[3]); err != nil {
		return Quote{}, fmt.Errorf("bid: %w", err)
	}
	if q.Ask, err = parseFinite(fields[4]); err != nil {
		return Quote{}, fmt.Errorf("ask: %w", err)
	}
	if q.BidSize, err = strconv.Atoi(fields[5]); err != nil {
		return Quote{}, fmt.Errorf("bidsize: %w", err)
	}
	if q.AskSize, err = strconv.Atoi(fields[6]); err != nil {
		return Quote{}, fmt.Errorf("asksize: %w", err)
	}
	return q, nil
}

// parseFinite parses a float and rejects NaN/±Inf: strconv accepts the
// literals "NaN" and "Inf", but a non-finite price or timestamp would
// silently poison every downstream EWMA and correlation window.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// Universe is an ordered set of symbols with O(1) index lookup. The
// correlation engine addresses stocks by dense integer index; Universe
// is the symbol↔index mapping shared across the system.
type Universe struct {
	symbols []string
	index   map[string]int
}

// NewUniverse builds a universe from symbols, preserving order and
// rejecting duplicates or empty names.
func NewUniverse(symbols []string) (*Universe, error) {
	u := &Universe{index: make(map[string]int, len(symbols))}
	for _, s := range symbols {
		if s == "" {
			return nil, errors.New("taq: empty symbol in universe")
		}
		if _, dup := u.index[s]; dup {
			return nil, fmt.Errorf("taq: duplicate symbol %q", s)
		}
		u.index[s] = len(u.symbols)
		u.symbols = append(u.symbols, s)
	}
	return u, nil
}

// Len returns the number of symbols.
func (u *Universe) Len() int { return len(u.symbols) }

// Symbol returns the symbol at index i.
func (u *Universe) Symbol(i int) string { return u.symbols[i] }

// Symbols returns a copy of the ordered symbol list.
func (u *Universe) Symbols() []string {
	return append([]string(nil), u.symbols...)
}

// Index returns the dense index of symbol s and whether it exists.
func (u *Universe) Index(s string) (int, bool) {
	i, ok := u.index[s]
	return i, ok
}

// NumPairs returns n(n-1)/2, the number of unordered pairs — the
// quantity the paper stresses ("8000 stocks … over 32 million pairs").
func (u *Universe) NumPairs() int {
	n := len(u.symbols)
	return n * (n - 1) / 2
}

// Pair identifies an unordered stock pair by dense universe indices,
// with I < J by construction.
type Pair struct {
	I, J int
}

// PairID maps a pair to its canonical rank in the lexicographic
// enumeration of all pairs of an n-symbol universe, i.e. the row-major
// position of (i,j), i<j in the strictly-upper-triangular matrix.
func PairID(i, j, n int) int {
	if i > j {
		i, j = j, i
	}
	return i*n - i*(i+1)/2 + (j - i - 1)
}

// PairFromID inverts PairID: it returns the (i, j) pair at canonical
// rank id in an n-symbol universe. It panics if id is out of range —
// pair ids come from this package's own enumeration, so that is a
// programming error.
func PairFromID(id, n int) Pair {
	if id < 0 || id >= n*(n-1)/2 {
		panic(fmt.Sprintf("taq: pair id %d out of range for n=%d", id, n))
	}
	// Row i starts at offset i*n - i*(i+1)/2 - i... solve by scan:
	// rows shrink from n-1 to 1, so the loop runs at most n-1 times.
	row := 0
	rem := id
	for size := n - 1; rem >= size; size-- {
		rem -= size
		row++
	}
	return Pair{I: row, J: row + 1 + rem}
}

// AllPairs enumerates every unordered pair of an n-symbol universe in
// canonical (PairID) order.
func AllPairs(n int) []Pair {
	out := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{I: i, J: j})
		}
	}
	return out
}

// DefaultUniverse returns the 61-symbol universe used throughout the
// reproduction, standing in for the paper's "61 highly liquid US stocks
// frequently traded by professional pair traders". The tickers are
// large-cap US names (2008 era); only the count and liquidity tiering
// matter to the experiments.
func DefaultUniverse() *Universe {
	u, err := NewUniverse(DefaultSymbols())
	if err != nil {
		panic("taq: default universe invalid: " + err.Error())
	}
	return u
}

// DefaultSymbols returns the 61 tickers of DefaultUniverse.
func DefaultSymbols() []string {
	return []string{
		"AAPL", "MSFT", "IBM", "ORCL", "INTC", "CSCO", "HPQ", "DELL",
		"NVDA", "TXN", "QCOM", "EMC", "XOM", "CVX", "COP", "SLB",
		"HAL", "OXY", "VLO", "JPM", "BAC", "C", "WFC", "GS",
		"MS", "MER", "AXP", "BK", "USB", "WMT", "TGT", "COST",
		"HD", "LOW", "MCD", "KO", "PEP", "PG", "JNJ", "PFE",
		"MRK", "ABT", "BMY", "LLY", "AMGN", "UPS", "FDX", "GE",
		"BA", "CAT", "MMM", "HON", "UTX", "T", "VZ", "TWX",
		"DIS", "CMCSA", "F", "GM", "X",
	}
}

// SyntheticSymbols returns a deterministic n-symbol universe for
// scaling experiments past the paper's 61 names: the first
// min(n, 61) are the default tickers, the remainder synthetic
// "S0061".."S9999"-style names. Symbols depend only on n, so two
// processes given the same count agree on the universe (and therefore
// on every pair id).
func SyntheticSymbols(n int) []string {
	defaults := DefaultSymbols()
	if n <= len(defaults) {
		return defaults[:n]
	}
	syms := make([]string, n)
	copy(syms, defaults)
	for i := len(defaults); i < n; i++ {
		syms[i] = fmt.Sprintf("S%04d", i)
	}
	return syms
}
