package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"marketminer/internal/feed"
	"marketminer/internal/strategy"
)

// JournalSchema versions the on-disk journal format. A v2 journal is
// one JSON header line followed by one feed Result frame per completed
// unit — the exact bytes the farm sends over the wire for that unit.
const JournalSchema = "marketminer/sweep-journal/v2"

// journalSchemaV1 is the previous format: the header line followed by
// one JSON line per unit. It is still read; OpenJournal migrates such a
// journal to v2 before appending to it.
const journalSchemaV1 = "marketminer/sweep-journal/v1"

// syncEvery bounds how many appended units may be buffered in the OS
// page cache before an fsync; a hard power loss can cost at most this
// many units of re-execution (a clean kill costs none).
const syncEvery = 64

// maxHeaderLine bounds the JSON header line; it holds the symbol list
// and the parameter grid, far below this.
const maxHeaderLine = 1 << 20

// Header is the first line of a journal file. It binds the file to one
// sweep configuration (Fingerprint) and one shard assignment, and
// carries enough of the decomposition — symbols, calendar, grid, block
// size — for MergeFiles to rebuild the full Result without access to
// the original configuration.
type Header struct {
	Schema      string            `json:"schema"`
	Fingerprint string            `json:"fingerprint"`
	ShardIndex  int               `json:"shard"`
	ShardCount  int               `json:"of"`
	BlockSize   int               `json:"block_size"`
	Symbols     []string          `json:"symbols"`
	Days        int               `json:"days"`
	Levels      []strategy.Params `json:"levels"`
	Types       []string          `json:"types"`
	UnitsTotal  int               `json:"units_total"`
}

// Entry is one completed unit: the unit id and, for every pair of the
// unit's block (ascending canonical id), that pair's per-trade returns
// for the unit's (day, parameter set). On disk it is the feed.Result
// frame {Unit: U, Rets: Rets}.
type Entry struct {
	U    int
	Rets [][]float64
}

// Corruption describes a damaged journal tail: where the first bad
// record starts and why it was rejected. Everything before Offset is
// intact and trusted; everything from Offset on is discarded, and the
// units it held are simply re-run.
type Corruption struct {
	Path   string
	Offset int64 // byte offset of the first damaged record
	Record int   // 1-based index of the first damaged record after the header
	Units  int   // intact units kept before the damage
	Reason string
}

// String renders the corruption for logs: where the damage was found
// and how many completed units it cost.
func (c *Corruption) String() string {
	return fmt.Sprintf("%s: corrupt record %d (byte %d): %s; %d intact units kept",
		c.Path, c.Record, c.Offset, c.Reason, c.Units)
}

// JournalReader streams the intact prefix of a journal file, v1 or v2,
// one entry at a time. It never modifies the file.
type JournalReader struct {
	Header Header

	path  string
	f     *os.File
	dec   *feed.Decoder  // v2
	sc    *bufio.Scanner // v1
	base  int64          // byte length of the header line
	clean int64          // end of the last intact record
	units int
	bad   *Corruption
}

// OpenJournalReader opens the journal at path and parses its header.
// Damage the header cannot survive (unreadable file, bad header,
// unknown schema) is an error; damage to the records after it is
// reported by Corrupt once Next returns io.EOF.
func OpenJournalReader(path string) (*JournalReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &JournalReader{path: path, f: f}
	// The buffer holds the whole header line or the header is corrupt.
	br := bufio.NewReaderSize(f, maxHeaderLine)
	line, err := br.ReadSlice('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		err = fmt.Errorf("sweep: %s: journal is empty (no header)", path)
	case err == io.EOF || err == bufio.ErrBufferFull:
		err = fmt.Errorf("sweep: %s: corrupt journal header: no complete header line (delete the file to restart this shard)", path)
	case err != nil:
		err = fmt.Errorf("sweep: %s: read header: %w", path, err)
	default:
		if jerr := json.Unmarshal(line, &r.Header); jerr != nil {
			err = fmt.Errorf("sweep: %s: corrupt journal header: %w (delete the file to restart this shard)", path, jerr)
		} else if s := r.Header.Schema; s != JournalSchema && s != journalSchemaV1 {
			err = fmt.Errorf("sweep: %s: journal schema %q, want %q", path, s, JournalSchema)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r.base = int64(len(line))
	r.clean = r.base
	if r.Header.Schema == journalSchemaV1 {
		r.sc = bufio.NewScanner(br)
		r.sc.Buffer(make([]byte, 1<<20), maxJournalLine)
	} else {
		r.dec = feed.NewDecoder(br)
	}
	return r, nil
}

// Next returns the next intact entry. It returns io.EOF at the end of
// the intact prefix — Corrupt then says whether the file ended cleanly
// — and any other error only for an I/O failure.
func (r *JournalReader) Next() (Entry, error) {
	if r.bad != nil {
		return Entry{}, io.EOF
	}
	if r.sc != nil {
		return r.nextV1()
	}
	fr, err := r.dec.Read()
	switch {
	case err == io.EOF:
		return Entry{}, io.EOF
	case err == io.ErrUnexpectedEOF:
		return Entry{}, r.corrupt("torn record (truncated write?)")
	case errors.Is(err, feed.ErrProtocol):
		return Entry{}, r.corrupt(err.Error())
	case err != nil:
		return Entry{}, fmt.Errorf("sweep: %s: read: %w", r.path, err)
	}
	res, ok := fr.(*feed.Result)
	if !ok {
		return Entry{}, r.corrupt(fmt.Sprintf("unexpected %T record", fr))
	}
	if res.Unit >= uint64(r.Header.UnitsTotal) {
		return Entry{}, r.corrupt(fmt.Sprintf("unit id %d outside [0, %d)", res.Unit, r.Header.UnitsTotal))
	}
	r.clean = r.base + r.dec.Offset()
	r.units++
	return Entry{U: int(res.Unit), Rets: res.Rets}, nil
}

// corrupt records damage at the end of the intact prefix and ends the
// stream.
func (r *JournalReader) corrupt(reason string) error {
	r.bad = &Corruption{Path: r.path, Offset: r.clean, Record: r.units + 1, Units: r.units, Reason: reason}
	return io.EOF
}

// Corrupt reports the damaged tail found by Next, nil while the file
// has read cleanly.
func (r *JournalReader) Corrupt() *Corruption { return r.bad }

// Close closes the file.
func (r *JournalReader) Close() error { return r.f.Close() }

// maxJournalLine bounds one v1 journal line: a paper-scale unit is one
// block of ≤ blockSize pairs' trade returns, far below this.
const maxJournalLine = 64 << 20

// nextV1 parses one v1 line: {"crc": CRC32 of e, "e": {"u":…, "rets":…}}.
func (r *JournalReader) nextV1() (Entry, error) {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return Entry{}, r.corrupt("oversized line")
			}
			return Entry{}, fmt.Errorf("sweep: %s: read: %w", r.path, err)
		}
		return Entry{}, io.EOF
	}
	raw := r.sc.Bytes()
	var jl struct {
		CRC uint32          `json:"crc"`
		E   json.RawMessage `json:"e"`
	}
	if err := json.Unmarshal(raw, &jl); err != nil || jl.E == nil {
		return Entry{}, r.corrupt("unparseable line (truncated write?)")
	}
	if got := crc32.ChecksumIEEE(jl.E); got != jl.CRC {
		return Entry{}, r.corrupt(fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", jl.CRC, got))
	}
	var e Entry // {"u":…, "rets":…}: json matches field names case-insensitively
	if err := json.Unmarshal(jl.E, &e); err != nil {
		return Entry{}, r.corrupt("unparseable entry payload")
	}
	if e.U < 0 || e.U >= r.Header.UnitsTotal {
		return Entry{}, r.corrupt(fmt.Sprintf("unit id %d outside [0, %d)", e.U, r.Header.UnitsTotal))
	}
	r.clean += int64(len(raw)) + 1
	r.units++
	return e, nil
}

// Journal is an append-only checkpoint log opened for writing by one
// shard process. Append is safe for concurrent use by the runner's
// workers.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	enc       *feed.Encoder
	sinceSync int
}

// OpenJournal opens (or creates) the journal at path for the sweep and
// shard described by h. For an existing file it verifies the header
// matches (same fingerprint, same shard), heals a damaged tail by
// truncating to the last intact record, migrates a v1 journal to v2,
// and returns the per-unit trade counts of every intact entry so the
// runner can skip completed work. The returned Corruption (nil when
// the file was clean) reports what was healed.
func OpenJournal(path string, h Header) (*Journal, map[int]int, *Corruption, error) {
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		j, err := createJournal(path, h)
		if err != nil {
			return nil, nil, nil, err
		}
		return j, map[int]int{}, nil, nil
	}

	r, err := OpenJournalReader(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer r.Close()
	if r.Header.Fingerprint != h.Fingerprint {
		return nil, nil, nil, fmt.Errorf("sweep: %s: journal fingerprint %s does not match this configuration (%s) — it records a different sweep",
			path, r.Header.Fingerprint, h.Fingerprint)
	}
	if r.Header.ShardIndex != h.ShardIndex || r.Header.ShardCount != h.ShardCount {
		return nil, nil, nil, fmt.Errorf("sweep: %s: journal belongs to shard %d/%d, not %d/%d",
			path, r.Header.ShardIndex, r.Header.ShardCount, h.ShardIndex, h.ShardCount)
	}
	if r.Header.Schema == journalSchemaV1 {
		return migrateV1(path, h, r)
	}
	done, err := readDone(r, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	corrupt := r.Corrupt()
	if corrupt != nil {
		// Recovery: drop the damaged tail so the re-run of its units
		// appends to an intact file.
		if err := os.Truncate(path, corrupt.Offset); err != nil {
			return nil, nil, nil, fmt.Errorf("sweep: heal %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Journal{f: f, enc: feed.NewEncoder(f, nil)}, done, corrupt, nil
}

// createJournal starts a new journal at path holding only header h,
// stamped with the current schema.
func createJournal(path string, h Header) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	h.Schema = JournalSchema
	hb, err := json.Marshal(h)
	if err == nil {
		_, err = f.Write(append(hb, '\n'))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, enc: feed.NewEncoder(f, nil)}, nil
}

// migrateV1 rewrites the v1 journal r is reading as v2 under header h:
// every intact entry goes to <path>.tmp, which is fsynced and renamed
// over the original, so no file ever mixes the two formats. A damaged
// v1 tail is dropped by the rewrite and reported as healed.
func migrateV1(path string, h Header, r *JournalReader) (*Journal, map[int]int, *Corruption, error) {
	tmp := path + ".tmp"
	j, err := createJournal(tmp, h)
	if err != nil {
		return nil, nil, nil, err
	}
	done, err := readDone(r, j.Append)
	if err == nil {
		err = j.f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		j.f.Close()
		os.Remove(tmp)
		return nil, nil, nil, fmt.Errorf("sweep: migrate %s to %s: %w", path, JournalSchema, err)
	}
	// j's file, positioned at its end, now is the file at path.
	return j, done, r.Corrupt(), nil
}

// readDone reads r's intact entries into the per-unit trade counts
// OpenJournal returns, passing each entry on to also when it is
// non-nil.
func readDone(r *JournalReader, also func(Entry) error) (map[int]int, error) {
	done := map[int]int{}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return done, nil
		}
		if err != nil {
			return nil, err
		}
		n := 0
		for _, row := range e.Rets {
			n += len(row)
		}
		done[e.U] = n
		if also != nil {
			if err := also(e); err != nil {
				return nil, err
			}
		}
	}
}

// Append writes one completed unit as a single feed Result frame; every
// syncEvery appends it also fsyncs, bounding what a power loss can
// undo. A unit over feed.MaxResultFloats returns is refused, exactly
// as the farm wire refuses it.
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.WriteResult(&feed.Result{Unit: uint64(e.U), Rets: e.Rets}); err != nil {
		return err
	}
	j.sinceSync++
	if j.sinceSync >= syncEvery {
		j.sinceSync = 0
		return j.f.Sync()
	}
	return nil
}

// Close fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
