// Package feed is the networked quote-distribution subsystem: the
// "data collector" edge of the paper's Figure 1 lifted out of the
// process. The original MarketMiner ran its collectors as MPI ranks
// streaming TAQ quotes into the DAG; here a feed.Server replays
// historical TAQ files or live simulator output over TCP to any number
// of subscribed feed.Collector clients, each of which exposes the same
// quote-channel contract the in-process pipeline consumes.
//
// The wire protocol is a compact length-prefixed binary framing:
//
//	[1 byte type][4 bytes payload length, LE][4 bytes CRC32, LE][payload]
//
// The CRC32 (IEEE) covers the type byte and the payload, so a flipped
// bit anywhere in a frame — including its type — is detected at decode
// time instead of silently corrupting quotes; a decoder that sees a
// checksum mismatch reports a protocol error, which drops the
// connection and lets the collector's resume-from-seq reconnect path
// refetch the damaged batch losslessly.
//
// Frame types: Hello (server → client: version + symbol table),
// Batch (sequence-numbered quote batches; symbols as dense uint16
// indices into the Hello table), Heartbeat (liveness when idle),
// End (clean end of stream) and Subscribe (client → server: resume
// point). Sequence numbers are per-stream, start at 1, and never skip;
// a collector that observes a hole knows frames were lost and can
// resume from its last good sequence number.
package feed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"marketminer/internal/taq"
)

// ProtocolVersion is the wire version carried in the Hello frame.
// Version 2 added the per-frame CRC32 to the header.
const ProtocolVersion = 2

// MaxFrameSize bounds a single frame's payload; larger length prefixes
// are treated as stream corruption, not allocation requests.
const MaxFrameSize = 16 << 20

// MaxBatchQuotes bounds the quotes per Batch frame.
const MaxBatchQuotes = (MaxFrameSize - batchHeaderSize) / quoteWireSize

// FrameType tags a wire frame.
type FrameType byte

// Wire frame types.
const (
	FrameHello     FrameType = 1
	FrameBatch     FrameType = 2
	FrameHeartbeat FrameType = 3
	FrameEnd       FrameType = 4
	FrameSubscribe FrameType = 5
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameBatch:
		return "batch"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameEnd:
		return "end"
	case FrameSubscribe:
		return "subscribe"
	case FrameGroupSub:
		return "group-sub"
	case FrameAssign:
		return "assign"
	case FrameSnapshot:
		return "snapshot"
	case FrameDelta:
		return "delta"
	case FrameAck:
		return "ack"
	case FrameJoin:
		return "join"
	case FrameGrant:
		return "grant"
	case FrameLease:
		return "lease"
	case FrameResult:
		return "result"
	case FrameSteal:
		return "steal"
	case FrameRefuse:
		return "refuse"
	case FrameResultAck:
		return "result-ack"
	default:
		return fmt.Sprintf("type-%d", byte(t))
	}
}

// ErrProtocol is wrapped by every malformed-frame error, so transport
// failures (io errors) and protocol failures are distinguishable.
var ErrProtocol = errors.New("feed: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// Frame is one decoded wire message: *Hello, *Batch, *Heartbeat, *End
// or *Subscribe from the quote feed, *GroupSub, *Assign,
// *SnapshotFrame, *DeltaFrame or *AckFrame from the signal broker
// extension (see signal.go), or *Join, *Grant, *Refuse, *Lease,
// *Result, *ResultAck or *Steal from the sweep-farm extension (see
// farm.go).
type Frame interface{ frameType() FrameType }

// Hello is the first server frame: protocol version plus the symbol
// table that Batch frames index into.
type Hello struct {
	Version uint16
	Symbols []string
}

// Batch is a sequence-numbered group of quotes from one trading day.
// Seq starts at 1 and increments by exactly 1 per batch. A Batch that
// Decoder.Read returns shares its Quotes with the decoder, which
// decodes the next batch into the same memory: they are valid until
// the next Read, so a consumer copies out any quote it keeps.
type Batch struct {
	Seq    uint64
	Day    int
	Quotes []taq.Quote
}

// Heartbeat is sent when the stream is idle; Seq is the last published
// batch sequence number.
type Heartbeat struct{ Seq uint64 }

// End marks a clean end of stream; Seq is the final batch sequence.
type End struct{ Seq uint64 }

// Subscribe is the client's only frame: resume delivery after sequence
// number From (0 requests the stream from the beginning).
type Subscribe struct{ From uint64 }

func (*Hello) frameType() FrameType     { return FrameHello }
func (*Batch) frameType() FrameType     { return FrameBatch }
func (*Heartbeat) frameType() FrameType { return FrameHeartbeat }
func (*End) frameType() FrameType       { return FrameEnd }
func (*Subscribe) frameType() FrameType { return FrameSubscribe }

// Wire sizes.
const (
	frameHeaderSize = 9                     // type byte + uint32 length + uint32 crc
	quoteWireSize   = 2 + 8 + 8 + 8 + 4 + 4 // idx, seqtime, bid, ask, bidsize, asksize
	batchHeaderSize = 8 + 4 + 4             // seq, day, count
	maxSymbolLen    = math.MaxUint16        // length prefix width
)

// Encoder writes frames to w. One frame is assembled in an internal
// buffer and written with a single Write call, so a net.Conn receives
// whole frames (modulo TCP segmentation). Not safe for concurrent use.
type Encoder struct {
	w   io.Writer
	uni *taq.Universe // symbol → index map for Batch frames; may be nil
	buf []byte
}

// NewEncoder returns an Encoder. uni supplies the symbol→index mapping
// for Batch frames and may be nil for client-side encoders that only
// send Subscribe.
func NewEncoder(w io.Writer, uni *taq.Universe) *Encoder {
	return &Encoder{w: w, uni: uni, buf: make([]byte, 0, 4096)}
}

// begin starts a frame of the given type, reserving the header.
func (e *Encoder) begin(t FrameType) {
	e.buf = e.buf[:0]
	e.buf = append(e.buf, byte(t), 0, 0, 0, 0, 0, 0, 0, 0)
}

// finish patches the length prefix and checksum, then flushes the
// frame. The CRC covers the type byte and payload so header and body
// corruption are both detectable.
func (e *Encoder) finish() error {
	payload := len(e.buf) - frameHeaderSize
	if payload > MaxFrameSize {
		return protoErrf("frame payload %d exceeds limit %d", payload, MaxFrameSize)
	}
	binary.LittleEndian.PutUint32(e.buf[1:5], uint32(payload))
	crc := crc32.Update(0, crc32.IEEETable, e.buf[:1])
	crc = crc32.Update(crc, crc32.IEEETable, e.buf[frameHeaderSize:])
	binary.LittleEndian.PutUint32(e.buf[5:frameHeaderSize], crc)
	_, err := e.w.Write(e.buf)
	return err
}

func (e *Encoder) putU16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Encoder) putU32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) putU64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) putF64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// WriteHello emits the version + symbol table frame.
func (e *Encoder) WriteHello(h *Hello) error {
	e.begin(FrameHello)
	e.putU16(h.Version)
	e.putU32(uint32(len(h.Symbols)))
	for _, s := range h.Symbols {
		if len(s) > maxSymbolLen {
			return protoErrf("symbol %q too long", s)
		}
		e.putU16(uint16(len(s)))
		e.buf = append(e.buf, s...)
	}
	return e.finish()
}

// WriteBatch emits a quote batch. Every quote's symbol must be in the
// encoder's universe, and sizes must be non-negative.
func (e *Encoder) WriteBatch(b *Batch) error {
	if e.uni == nil {
		return protoErrf("encoder has no universe; cannot encode batches")
	}
	if len(b.Quotes) > MaxBatchQuotes {
		return protoErrf("batch of %d quotes exceeds limit %d", len(b.Quotes), MaxBatchQuotes)
	}
	e.begin(FrameBatch)
	e.putU64(b.Seq)
	e.putU32(uint32(int32(b.Day)))
	e.putU32(uint32(len(b.Quotes)))
	for i := range b.Quotes {
		q := &b.Quotes[i]
		idx, ok := e.uni.Index(q.Symbol)
		if !ok {
			return protoErrf("symbol %q not in feed universe", q.Symbol)
		}
		if q.BidSize < 0 || q.AskSize < 0 {
			return protoErrf("negative size on %s", q.Symbol)
		}
		e.putU16(uint16(idx))
		e.putF64(q.SeqTime)
		e.putF64(q.Bid)
		e.putF64(q.Ask)
		e.putU32(uint32(q.BidSize))
		e.putU32(uint32(q.AskSize))
	}
	return e.finish()
}

// WriteHeartbeat emits a liveness frame.
func (e *Encoder) WriteHeartbeat(h *Heartbeat) error {
	e.begin(FrameHeartbeat)
	e.putU64(h.Seq)
	return e.finish()
}

// WriteEnd emits the clean end-of-stream frame.
func (e *Encoder) WriteEnd(f *End) error {
	e.begin(FrameEnd)
	e.putU64(f.Seq)
	return e.finish()
}

// WriteSubscribe emits the client resume-point frame.
func (e *Encoder) WriteSubscribe(s *Subscribe) error {
	e.begin(FrameSubscribe)
	e.putU64(s.From)
	return e.finish()
}

// Decoder reads frames from r. After a Hello frame is decoded its
// symbol table is retained and used to resolve Batch symbol indices.
// Not safe for concurrent use.
type Decoder struct {
	r       *bufio.Reader
	symbols []string
	hdr     [frameHeaderSize]byte // a field, so reading it does not allocate
	buf     []byte
	quotes  []taq.Quote // the last batch's quotes, reused by the next
	off     int64       // bytes of the frames decoded so far
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the byte length of every frame Read has returned so
// far: the end of the last intact frame, where a reader that heals a
// damaged stream truncates it.
func (d *Decoder) Offset() int64 { return d.off }

// Read decodes the next frame. It returns io.EOF at a clean stream end
// between frames, io.ErrUnexpectedEOF when a frame is torn, and errors
// wrapping ErrProtocol for structural corruption.
func (d *Decoder) Read() (Frame, error) {
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.r, hdr[:1]); err != nil {
		return nil, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(d.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	t := FrameType(hdr[0])
	n := binary.LittleEndian.Uint32(hdr[1:5])
	wantCRC := binary.LittleEndian.Uint32(hdr[5:])
	if n > MaxFrameSize {
		return nil, protoErrf("frame length %d exceeds limit %d", n, MaxFrameSize)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	crc := crc32.Update(0, crc32.IEEETable, hdr[:1])
	crc = crc32.Update(crc, crc32.IEEETable, d.buf)
	if crc != wantCRC {
		return nil, protoErrf("%s frame checksum mismatch (got %08x, want %08x)", t, crc, wantCRC)
	}
	f, err := d.decode(t)
	if err == nil {
		d.off += frameHeaderSize + int64(n)
	}
	return f, err
}

// decode parses the checksummed payload in d.buf as a frame of type t.
func (d *Decoder) decode(t FrameType) (Frame, error) {
	switch t {
	case FrameHello:
		return d.decodeHello(d.buf)
	case FrameBatch:
		return d.decodeBatch(d.buf)
	case FrameHeartbeat:
		seq, err := decodeU64Payload(d.buf, "heartbeat")
		if err != nil {
			return nil, err
		}
		return &Heartbeat{Seq: seq}, nil
	case FrameEnd:
		seq, err := decodeU64Payload(d.buf, "end")
		if err != nil {
			return nil, err
		}
		return &End{Seq: seq}, nil
	case FrameSubscribe:
		from, err := decodeU64Payload(d.buf, "subscribe")
		if err != nil {
			return nil, err
		}
		return &Subscribe{From: from}, nil
	case FrameGroupSub:
		return decodeGroupSub(d.buf)
	case FrameAssign:
		return decodeAssign(d.buf)
	case FrameSnapshot:
		return decodeSnapshot(d.buf)
	case FrameDelta:
		return decodeDelta(d.buf)
	case FrameAck:
		return decodeAck(d.buf)
	case FrameJoin:
		return decodeJoin(d.buf)
	case FrameGrant:
		return decodeGrant(d.buf)
	case FrameLease:
		return decodeLease(d.buf)
	case FrameResult:
		return decodeResult(d.buf)
	case FrameSteal:
		done, err := decodeU64Payload(d.buf, "steal")
		if err != nil {
			return nil, err
		}
		return &Steal{Done: done}, nil
	case FrameRefuse:
		return decodeRefuse(d.buf)
	case FrameResultAck:
		unit, err := decodeU64Payload(d.buf, "result-ack")
		if err != nil {
			return nil, err
		}
		return &ResultAck{Unit: unit}, nil
	default:
		return nil, protoErrf("unknown frame type %d", byte(t))
	}
}

func decodeU64Payload(p []byte, what string) (uint64, error) {
	if len(p) != 8 {
		return 0, protoErrf("%s payload %d bytes, want 8", what, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (d *Decoder) decodeHello(p []byte) (*Hello, error) {
	if len(p) < 6 {
		return nil, protoErrf("hello payload too short (%d bytes)", len(p))
	}
	h := &Hello{Version: binary.LittleEndian.Uint16(p)}
	count := binary.LittleEndian.Uint32(p[2:])
	p = p[6:]
	if count > math.MaxUint16+1 {
		return nil, protoErrf("hello declares %d symbols", count)
	}
	h.Symbols = make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 2 {
			return nil, protoErrf("hello truncated at symbol %d", i)
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return nil, protoErrf("hello symbol %d truncated", i)
		}
		h.Symbols = append(h.Symbols, string(p[:n]))
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, protoErrf("hello has %d trailing bytes", len(p))
	}
	d.symbols = h.Symbols
	return h, nil
}

func (d *Decoder) decodeBatch(p []byte) (*Batch, error) {
	if d.symbols == nil {
		return nil, protoErrf("batch before hello")
	}
	if len(p) < batchHeaderSize {
		return nil, protoErrf("batch payload too short (%d bytes)", len(p))
	}
	b := &Batch{
		Seq: binary.LittleEndian.Uint64(p),
		Day: int(int32(binary.LittleEndian.Uint32(p[8:]))),
	}
	count := int(binary.LittleEndian.Uint32(p[12:]))
	p = p[batchHeaderSize:]
	if len(p) != count*quoteWireSize {
		return nil, protoErrf("batch declares %d quotes but carries %d bytes", count, len(p))
	}
	if cap(d.quotes) < count {
		d.quotes = make([]taq.Quote, count)
	}
	b.Quotes = d.quotes[:count]
	for i := 0; i < count; i++ {
		rec := p[i*quoteWireSize:]
		idx := int(binary.LittleEndian.Uint16(rec))
		if idx >= len(d.symbols) {
			return nil, protoErrf("batch quote %d: symbol index %d outside table of %d", i, idx, len(d.symbols))
		}
		b.Quotes[i] = taq.Quote{
			Day:     b.Day,
			Symbol:  d.symbols[idx],
			SeqTime: math.Float64frombits(binary.LittleEndian.Uint64(rec[2:])),
			Bid:     math.Float64frombits(binary.LittleEndian.Uint64(rec[10:])),
			Ask:     math.Float64frombits(binary.LittleEndian.Uint64(rec[18:])),
			BidSize: int(binary.LittleEndian.Uint32(rec[26:])),
			AskSize: int(binary.LittleEndian.Uint32(rec[30:])),
		}
	}
	return b, nil
}
