package feed

import (
	"encoding/binary"
	"math"
)

// Farm extension frames. The distributed sweep farm (internal/farm)
// deals sweep work units from a coordinator to remote worker processes
// over the same length-prefixed CRC-framed wire as the quote feed and
// the signal broker, with seven extra frame types: Join (worker →
// coordinator: name + sweep-configuration fingerprint, plus the rejoin
// fields — prior session id, prior coordinator epoch and held lease
// ids — that let a worker survive a coordinator restart without losing
// compute), Grant (coordinator → worker: session id + coordinator
// epoch + sweep progress, the accept for a Join), Refuse (coordinator
// → worker: an explicit, fatal rejection — version or fingerprint
// mismatch — distinguishable from a mere connection failure so healthy
// workers retry restarts but exit loudly on misconfiguration), Lease
// (coordinator → worker: a generation-fenced, TTL-bounded claim on one
// (day, pair-block) group's missing units), Result (worker →
// coordinator: one completed unit's per-pair trade returns, stamped
// with the lease's generation and the coordinator epoch so fenced
// zombies — of either kind — are detectable), ResultAck (coordinator →
// worker: the unit was journaled durably; the worker may drop its
// redelivery copy) and Steal (worker → coordinator: a pull request for
// more work — the cross-host analogue of sched.Steal's deque pop).
// Heartbeat (worker → coordinator: lease renewal) and End (coordinator
// → worker: sweep complete) are shared with the quote feed.
const (
	FrameJoin      FrameType = 11
	FrameGrant     FrameType = 12
	FrameLease     FrameType = 13
	FrameResult    FrameType = 14
	FrameSteal     FrameType = 15
	FrameRefuse    FrameType = 16
	FrameResultAck FrameType = 17
)

// Join is the worker's first frame: its name (diagnostics only) and
// the FNV-64a fingerprint of the sweep configuration it was started
// with. The coordinator refuses a mismatched fingerprint — a worker
// built from a different seed, universe, grid or screening setup would
// journal values from a different sweep.
//
// The rejoin fields are zero on a fresh join. A worker reconnecting
// after a session loss (coordinator restart, standby takeover, wire
// fault) sets PriorSession and PriorEpoch to its last Grant's values
// and HeldLeases to the lease ids it still holds unfinished or
// unacked work for; a coordinator that can validate those against its
// durable lease table re-confirms the groups to the new session so
// the worker's in-flight compute is not thrown away.
type Join struct {
	Version     uint16
	Name        string
	Fingerprint string
	// Rejoin fields; all zero for a fresh join.
	PriorSession uint64
	PriorEpoch   uint64
	HeldLeases   []uint64
}

// Grant accepts a Join: the worker's session id (echoed in Heartbeat
// frames to renew its leases), the coordinator epoch (stamped into
// every Result so a stale incarnation's deliveries are fenced), plus
// the sweep's total and already-journaled unit counts for worker-side
// logging.
type Grant struct {
	Session    uint64
	Epoch      uint64
	UnitsTotal uint64
	UnitsDone  uint64
}

// Refuse reasons.
const (
	RefuseVersion     uint16 = 1 // protocol version mismatch
	RefuseFingerprint uint16 = 2 // sweep configuration fingerprint mismatch
)

// Refuse rejects a Join explicitly. Unlike a dropped connection — which
// a worker treats as "coordinator unreachable" and retries under
// backoff (a coordinator restart window looks exactly like that) — a
// Refuse is a deliberate, permanent verdict: this worker's version or
// sweep configuration can never join this coordinator, so it must exit
// loudly instead of burning its retry budget.
type Refuse struct {
	Code   uint16
	Reason string
}

// Lease assigns one (day, pair-block) group's missing units to a
// worker. Gen is the group's generation fencing token: it is bumped
// every time the group is (re)assigned, and a Result carrying a stale
// generation is rejected. TTLMillis is how long the coordinator will
// wait between heartbeats before declaring the holder dead and
// reassigning; Params lists the flat parameter indexes still missing
// (a reassigned group re-leases only what its dead holder never
// delivered).
type Lease struct {
	ID        uint64
	Gen       uint64
	Day       uint32
	Block     uint32
	TTLMillis uint32
	Params    []uint16
}

// Result flag bits.
const (
	// ResultRecovered marks a redelivery from a worker's unacked
	// buffer after a session loss — compute the coordinator would
	// otherwise have had to re-lease. Counted, not treated specially:
	// the value bytes are identical either way.
	ResultRecovered uint8 = 1 << 0
)

// Result delivers one completed unit: the lease and generation it was
// computed under, the coordinator epoch it was granted by, the unit's
// dense id, and the per-pair trade-return rows of the unit's block
// (ascending canonical pair id, pruned pairs as empty rows) — float64
// bits verbatim, so the coordinator journals exactly the values a
// single-host run would have. Flags carries ResultRecovered for
// rejoin redeliveries.
type Result struct {
	Lease uint64
	Gen   uint64
	Epoch uint64
	Unit  uint64
	Flags uint8
	Rets  [][]float64
}

// ResultAck confirms one unit is durably journaled. A worker buffers
// every delivered Result until its ack arrives, so a coordinator that
// dies between receiving a Result and journaling it (or between
// journaling and acking — the redelivery is then deduplicated) can be
// re-sent the finished unit instead of re-computing it.
type ResultAck struct{ Unit uint64 }

// Steal asks the coordinator for (more) work. Done carries the units
// this worker has completed so far, for coordinator-side telemetry.
// A worker that finds the queue empty is parked and receives a Lease
// (or End) when work frees up — including units reclaimed from an
// expired lease, which is how idle workers steal a dead peer's queue
// across the wire.
type Steal struct{ Done uint64 }

func (*Join) frameType() FrameType      { return FrameJoin }
func (*Grant) frameType() FrameType     { return FrameGrant }
func (*Refuse) frameType() FrameType    { return FrameRefuse }
func (*Lease) frameType() FrameType     { return FrameLease }
func (*Result) frameType() FrameType    { return FrameResult }
func (*ResultAck) frameType() FrameType { return FrameResultAck }
func (*Steal) frameType() FrameType     { return FrameSteal }

// resultHeaderSize is the fixed Result prefix: lease, gen, epoch, unit
// (8 bytes each), flags (1) and the row count (4).
const resultHeaderSize = 8*4 + 1 + 4

// MaxResultFloats bounds the total float64 count in one Result frame.
const MaxResultFloats = (MaxFrameSize - resultHeaderSize) / 8

// maxHeldLeases bounds the lease ids a rejoining worker may claim in
// one Join frame; a worker computes one group at a time plus a short
// queue of pushed re-confirmations, so real counts are single digits.
const maxHeldLeases = 1024

// WriteJoin emits a worker's join request.
func (e *Encoder) WriteJoin(j *Join) error {
	if len(j.Name) > maxSymbolLen || len(j.Fingerprint) > maxSymbolLen {
		return protoErrf("join name or fingerprint too long")
	}
	if len(j.HeldLeases) > maxHeldLeases {
		return protoErrf("join claims %d held leases (limit %d)", len(j.HeldLeases), maxHeldLeases)
	}
	e.begin(FrameJoin)
	e.putU16(j.Version)
	e.putU16(uint16(len(j.Name)))
	e.buf = append(e.buf, j.Name...)
	e.putU16(uint16(len(j.Fingerprint)))
	e.buf = append(e.buf, j.Fingerprint...)
	e.putU64(j.PriorSession)
	e.putU64(j.PriorEpoch)
	e.putU16(uint16(len(j.HeldLeases)))
	for _, id := range j.HeldLeases {
		e.putU64(id)
	}
	return e.finish()
}

// WriteGrant emits the coordinator's join accept.
func (e *Encoder) WriteGrant(g *Grant) error {
	e.begin(FrameGrant)
	e.putU64(g.Session)
	e.putU64(g.Epoch)
	e.putU64(g.UnitsTotal)
	e.putU64(g.UnitsDone)
	return e.finish()
}

// WriteRefuse emits an explicit join rejection.
func (e *Encoder) WriteRefuse(r *Refuse) error {
	if len(r.Reason) > maxSymbolLen {
		return protoErrf("refuse reason too long")
	}
	e.begin(FrameRefuse)
	e.putU16(r.Code)
	e.putU16(uint16(len(r.Reason)))
	e.buf = append(e.buf, r.Reason...)
	return e.finish()
}

// WriteLease emits a group lease.
func (e *Encoder) WriteLease(l *Lease) error {
	if len(l.Params) > math.MaxUint16 {
		return protoErrf("lease carries %d params", len(l.Params))
	}
	e.begin(FrameLease)
	e.putU64(l.ID)
	e.putU64(l.Gen)
	e.putU32(l.Day)
	e.putU32(l.Block)
	e.putU32(l.TTLMillis)
	e.putU16(uint16(len(l.Params)))
	for _, p := range l.Params {
		e.putU16(p)
	}
	return e.finish()
}

// WriteResult emits one completed unit.
func (e *Encoder) WriteResult(r *Result) error {
	total := 0
	for _, row := range r.Rets {
		total += len(row)
	}
	if total > MaxResultFloats {
		return protoErrf("result of %d returns exceeds limit %d", total, MaxResultFloats)
	}
	e.begin(FrameResult)
	e.putU64(r.Lease)
	e.putU64(r.Gen)
	e.putU64(r.Epoch)
	e.putU64(r.Unit)
	e.buf = append(e.buf, r.Flags)
	e.putU32(uint32(len(r.Rets)))
	for _, row := range r.Rets {
		e.putU32(uint32(len(row)))
		for _, v := range row {
			e.putF64(v)
		}
	}
	return e.finish()
}

// WriteResultAck emits a durability confirmation for one unit.
func (e *Encoder) WriteResultAck(a *ResultAck) error {
	e.begin(FrameResultAck)
	e.putU64(a.Unit)
	return e.finish()
}

// WriteSteal emits a work request.
func (e *Encoder) WriteSteal(s *Steal) error {
	e.begin(FrameSteal)
	e.putU64(s.Done)
	return e.finish()
}

func decodeJoin(p []byte) (*Join, error) {
	if len(p) < 2 {
		return nil, protoErrf("join payload too short (%d bytes)", len(p))
	}
	j := &Join{Version: binary.LittleEndian.Uint16(p)}
	p = p[2:]
	str := func(what string) (string, error) {
		if len(p) < 2 {
			return "", protoErrf("join truncated before %s", what)
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return "", protoErrf("join %s truncated", what)
		}
		s := string(p[:n])
		p = p[n:]
		return s, nil
	}
	var err error
	if j.Name, err = str("name"); err != nil {
		return nil, err
	}
	if j.Fingerprint, err = str("fingerprint"); err != nil {
		return nil, err
	}
	if len(p) < 18 {
		return nil, protoErrf("join truncated before rejoin fields")
	}
	j.PriorSession = binary.LittleEndian.Uint64(p)
	j.PriorEpoch = binary.LittleEndian.Uint64(p[8:])
	count := int(binary.LittleEndian.Uint16(p[16:]))
	p = p[18:]
	if count > maxHeldLeases {
		return nil, protoErrf("join claims %d held leases (limit %d)", count, maxHeldLeases)
	}
	if len(p) != count*8 {
		return nil, protoErrf("join declares %d held leases but carries %d bytes", count, len(p))
	}
	j.HeldLeases = make([]uint64, count)
	for i := range j.HeldLeases {
		j.HeldLeases[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return j, nil
}

func decodeGrant(p []byte) (*Grant, error) {
	if len(p) != 32 {
		return nil, protoErrf("grant payload %d bytes, want 32", len(p))
	}
	return &Grant{
		Session:    binary.LittleEndian.Uint64(p),
		Epoch:      binary.LittleEndian.Uint64(p[8:]),
		UnitsTotal: binary.LittleEndian.Uint64(p[16:]),
		UnitsDone:  binary.LittleEndian.Uint64(p[24:]),
	}, nil
}

func decodeRefuse(p []byte) (*Refuse, error) {
	if len(p) < 4 {
		return nil, protoErrf("refuse payload too short (%d bytes)", len(p))
	}
	r := &Refuse{Code: binary.LittleEndian.Uint16(p)}
	n := int(binary.LittleEndian.Uint16(p[2:]))
	p = p[4:]
	if len(p) != n {
		return nil, protoErrf("refuse declares %d reason bytes but carries %d", n, len(p))
	}
	r.Reason = string(p)
	return r, nil
}

func decodeLease(p []byte) (*Lease, error) {
	if len(p) < 30 {
		return nil, protoErrf("lease payload too short (%d bytes)", len(p))
	}
	l := &Lease{
		ID:        binary.LittleEndian.Uint64(p),
		Gen:       binary.LittleEndian.Uint64(p[8:]),
		Day:       binary.LittleEndian.Uint32(p[16:]),
		Block:     binary.LittleEndian.Uint32(p[20:]),
		TTLMillis: binary.LittleEndian.Uint32(p[24:]),
	}
	count := int(binary.LittleEndian.Uint16(p[28:]))
	p = p[30:]
	if len(p) != count*2 {
		return nil, protoErrf("lease declares %d params but carries %d bytes", count, len(p))
	}
	l.Params = make([]uint16, count)
	for i := range l.Params {
		l.Params[i] = binary.LittleEndian.Uint16(p[i*2:])
	}
	return l, nil
}

func decodeResult(p []byte) (*Result, error) {
	if len(p) < resultHeaderSize {
		return nil, protoErrf("result payload too short (%d bytes)", len(p))
	}
	r := &Result{
		Lease: binary.LittleEndian.Uint64(p),
		Gen:   binary.LittleEndian.Uint64(p[8:]),
		Epoch: binary.LittleEndian.Uint64(p[16:]),
		Unit:  binary.LittleEndian.Uint64(p[24:]),
		Flags: p[32],
	}
	rows := int(binary.LittleEndian.Uint32(p[33:]))
	p = p[resultHeaderSize:]
	// Every row carries at least its 4-byte length, so the payload bounds
	// the row table before it is allocated.
	if rows > len(p)/4 {
		return nil, protoErrf("result declares %d rows in %d bytes", rows, len(p))
	}
	// Rows are always non-nil, zero trades included: the coordinator
	// journals these slices verbatim, the sweep journal reads its
	// records back through here, and backtest.TradeReturns (the
	// single-host path) never produces a nil row — nil would save as
	// JSON null instead of [] and break merge byte-identity.
	r.Rets = make([][]float64, rows)
	for i := range r.Rets {
		if len(p) < 4 {
			return nil, protoErrf("result truncated at row %d", i)
		}
		n := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if n > MaxResultFloats || len(p) < n*8 {
			return nil, protoErrf("result row %d declares %d returns but carries %d bytes", i, n, len(p))
		}
		row := make([]float64, n)
		for k := range row {
			row[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[k*8:]))
		}
		r.Rets[i] = row
		p = p[n*8:]
	}
	if len(p) != 0 {
		return nil, protoErrf("result has %d trailing bytes", len(p))
	}
	return r, nil
}
