package feed

import (
	"encoding/binary"
	"math"
	"slices"
)

// Broker extension frames. The signal broker speaks the same
// length-prefixed CRC-framed wire as the quote feed, with five extra
// frame types: GroupSub (client → broker: join a consumer group with
// per-partition resume offsets), Assign (broker → client: the epoch-
// stamped partition assignment, re-sent on every rebalance), Snapshot
// (broker → client: the newest logged interval of one partition — its
// latest signal per pair), Delta (broker → client: the next interval,
// or the next range of one, in offset order) and Ack (client → broker:
// commit offset for one partition). Heartbeat and End are shared with
// the quote feed.
const (
	FrameGroupSub FrameType = 6
	FrameAssign   FrameType = 7
	FrameSnapshot FrameType = 8
	FrameDelta    FrameType = 9
	FrameAck      FrameType = 10
)

// Signal is one published pair signal. Offset is the per-partition log
// position (starting at 1, contiguous); Pair is the canonical pair id;
// S the grid interval; Kind a broker-defined discriminant (update /
// diverge / revert); C and Cbar the correlation and its W-average at S.
// Signals travel and are stored as Interval columns; a Signal is what
// one column index materialises to.
type Signal struct {
	Offset uint64
	Pair   uint32
	S      uint32
	Kind   uint8
	C      float64
	Cbar   float64
}

// Interval is the unit of the signal path: one partition's signals at
// grid interval S as three columns in the partition's ascending pair
// order, or a contiguous range of them when a resume point or the
// frame bound cuts inside the interval. Every interval of a partition
// holds Pairs signals; column index i is the partition's pair number
// First+i and has log offset Base+First+i+1, so offsets stay dense and
// per signal while neither they nor the pair ids are stored.
type Interval struct {
	S     uint32
	Base  uint64 // log offset preceding the interval's first signal
	Pairs uint32 // signals in the whole interval
	First uint32 // partition pair number of column index 0
	C     []float64
	Cbar  []float64
	Kind  []uint8
}

// Len is the number of signals carried.
func (iv Interval) Len() int { return len(iv.C) }

// End is the log offset of the last signal carried.
func (iv Interval) End() uint64 { return iv.Base + uint64(iv.First) + uint64(len(iv.C)) }

// From returns the range of iv starting i signals in. The columns are
// shared, not copied.
func (iv Interval) From(i int) Interval {
	iv.First += uint32(i)
	iv.C, iv.Cbar, iv.Kind = iv.C[i:], iv.Cbar[i:], iv.Kind[i:]
	return iv
}

const (
	intervalHeaderSize = 4 + 8 + 4 + 4 + 4 // S, base, pairs, first, count
	signalWireSize     = 8 + 8 + 1         // C, C̄, kind
)

// MaxSignalRecs bounds the signals carried by one Snapshot or Delta
// frame.
const MaxSignalRecs = (MaxFrameSize - 3 - intervalHeaderSize) / signalWireSize

// MaxStocks bounds the universe an Assign may declare. A subscriber
// builds its table of Stocks·(Stocks−1)/2 pair ids from that one field,
// so the decoder — not the first interval — has to cap it: 4096 stocks
// are 8.4 M pairs, a 67 MB table, several times any universe this
// repository runs and small enough that a hostile frame cannot hang or
// exhaust the client.
const MaxStocks = 4096

// PartitionOffset is a (partition, offset) resume point inside a
// GroupSub frame.
type PartitionOffset struct {
	Partition uint16
	Offset    uint64
}

// GroupSub is the broker client's subscription frame: consumer group
// and member names, explicit per-partition resume offsets (the last
// offset the client has durably seen), and a FromStart flag. A
// partition with no offset and no FromStart is served compacted
// state (Snapshot) then deltas; FromStart forces a full replay from
// offset 1 instead — the mode a deterministic audit consumer wants.
type GroupSub struct {
	Group     string
	Member    string
	FromStart bool
	Offsets   []PartitionOffset
}

// Assign tells a member its current partition set. Epoch increments on
// every group membership or processor-lease change, so a client can
// count rebalances and detect stale assignments. Stocks and
// NumPartitions are the topology interval columns are read against: a
// partition's pairs are the canonical pair ids of a Stocks-order
// universe that hash to it, ascending.
type Assign struct {
	Epoch         uint64
	Stocks        uint32
	NumPartitions uint16
	Partitions    []uint16
}

// SnapshotFrame carries the compacted state of one partition: its
// newest logged interval, which holds the latest signal of every pair.
// Deltas for the partition then continue from End()+1.
type SnapshotFrame struct {
	Partition uint16
	Interval
}

// DeltaFrame carries the next signals of one partition: one interval,
// or the range of one that a resume point or the broker's frame bound
// leaves. Sealed marks the end of the partition's stream (no further
// signals will ever follow); only a sealed delta may be empty.
type DeltaFrame struct {
	Partition uint16
	Sealed    bool
	Interval
}

// AckFrame commits a member's delivered offset for one partition.
type AckFrame struct {
	Partition uint16
	Offset    uint64
}

func (*GroupSub) frameType() FrameType      { return FrameGroupSub }
func (*Assign) frameType() FrameType        { return FrameAssign }
func (*SnapshotFrame) frameType() FrameType { return FrameSnapshot }
func (*DeltaFrame) frameType() FrameType    { return FrameDelta }
func (*AckFrame) frameType() FrameType      { return FrameAck }

// WriteGroupSub emits a consumer-group subscription.
func (e *Encoder) WriteGroupSub(g *GroupSub) error {
	if len(g.Group) > maxSymbolLen || len(g.Member) > maxSymbolLen {
		return protoErrf("group or member name too long")
	}
	if len(g.Offsets) > math.MaxUint16 {
		return protoErrf("group-sub carries %d offsets", len(g.Offsets))
	}
	e.begin(FrameGroupSub)
	e.putU16(uint16(len(g.Group)))
	e.buf = append(e.buf, g.Group...)
	e.putU16(uint16(len(g.Member)))
	e.buf = append(e.buf, g.Member...)
	if g.FromStart {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	e.putU16(uint16(len(g.Offsets)))
	for _, po := range g.Offsets {
		e.putU16(po.Partition)
		e.putU64(po.Offset)
	}
	return e.finish()
}

// WriteAssign emits a partition assignment.
func (e *Encoder) WriteAssign(a *Assign) error {
	if len(a.Partitions) > math.MaxUint16 || a.Stocks > MaxStocks {
		return protoErrf("assign carries %d partitions of %d stocks", len(a.Partitions), a.Stocks)
	}
	e.begin(FrameAssign)
	e.putU64(a.Epoch)
	e.putU32(a.Stocks)
	e.putU16(a.NumPartitions)
	e.putU16(uint16(len(a.Partitions)))
	for _, p := range a.Partitions {
		e.putU16(p)
	}
	return e.finish()
}

// putInterval appends the interval header and its three columns.
func (e *Encoder) putInterval(iv *Interval) error {
	n := len(iv.C)
	if len(iv.Cbar) != n || len(iv.Kind) != n {
		return protoErrf("interval columns of %d, %d and %d signals", n, len(iv.Cbar), len(iv.Kind))
	}
	if n > MaxSignalRecs || uint64(iv.First)+uint64(n) > uint64(iv.Pairs) {
		return protoErrf("interval range %d+%d outside %d pairs (frame limit %d)", iv.First, n, iv.Pairs, MaxSignalRecs)
	}
	e.putU32(iv.S)
	e.putU64(iv.Base)
	e.putU32(iv.Pairs)
	e.putU32(iv.First)
	e.putU32(uint32(n))
	for _, col := range [...][]float64{iv.C, iv.Cbar} {
		off := len(e.buf)
		e.buf = slices.Grow(e.buf, 8*n)[:off+8*n]
		for i, v := range col {
			binary.LittleEndian.PutUint64(e.buf[off+8*i:], math.Float64bits(v))
		}
	}
	e.buf = append(e.buf, iv.Kind...)
	return nil
}

// WriteSnapshot emits a partition's compacted state.
func (e *Encoder) WriteSnapshot(s *SnapshotFrame) error {
	if len(s.C) == 0 {
		return protoErrf("empty snapshot")
	}
	e.begin(FrameSnapshot)
	e.putU16(s.Partition)
	if err := e.putInterval(&s.Interval); err != nil {
		return err
	}
	return e.finish()
}

// WriteDelta emits the next signals of one partition.
func (e *Encoder) WriteDelta(d *DeltaFrame) error {
	if len(d.C) == 0 && !d.Sealed {
		return protoErrf("empty delta")
	}
	e.begin(FrameDelta)
	e.putU16(d.Partition)
	if d.Sealed {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	if err := e.putInterval(&d.Interval); err != nil {
		return err
	}
	return e.finish()
}

// WriteAck emits a commit offset.
func (e *Encoder) WriteAck(a *AckFrame) error {
	e.begin(FrameAck)
	e.putU16(a.Partition)
	e.putU64(a.Offset)
	return e.finish()
}

// decodeInterval reads an interval header and columns that fill p
// exactly.
func decodeInterval(p []byte, what string) (Interval, error) {
	if len(p) < intervalHeaderSize {
		return Interval{}, protoErrf("%s payload too short (%d bytes)", what, len(p))
	}
	iv := Interval{
		S:     binary.LittleEndian.Uint32(p),
		Base:  binary.LittleEndian.Uint64(p[4:]),
		Pairs: binary.LittleEndian.Uint32(p[12:]),
		First: binary.LittleEndian.Uint32(p[16:]),
	}
	n := int(binary.LittleEndian.Uint32(p[20:]))
	p = p[intervalHeaderSize:]
	if n > MaxSignalRecs || len(p) != n*signalWireSize {
		return Interval{}, protoErrf("%s declares %d signals but carries %d bytes", what, n, len(p))
	}
	if uint64(iv.First)+uint64(n) > uint64(iv.Pairs) {
		return Interval{}, protoErrf("%s range %d+%d outside %d pairs", what, iv.First, n, iv.Pairs)
	}
	vals := make([]float64, 2*n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	iv.C, iv.Cbar = vals[:n:n], vals[n:]
	iv.Kind = append([]uint8(nil), p[16*n:]...)
	return iv, nil
}

func decodeGroupSub(p []byte) (*GroupSub, error) {
	g := &GroupSub{}
	str := func(what string) (string, error) {
		if len(p) < 2 {
			return "", protoErrf("group-sub truncated before %s", what)
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return "", protoErrf("group-sub %s truncated", what)
		}
		s := string(p[:n])
		p = p[n:]
		return s, nil
	}
	var err error
	if g.Group, err = str("group"); err != nil {
		return nil, err
	}
	if g.Member, err = str("member"); err != nil {
		return nil, err
	}
	if len(p) < 3 {
		return nil, protoErrf("group-sub truncated before offsets")
	}
	switch p[0] {
	case 0:
	case 1:
		g.FromStart = true
	default:
		return nil, protoErrf("group-sub from-start flag %d", p[0])
	}
	count := int(binary.LittleEndian.Uint16(p[1:]))
	p = p[3:]
	if len(p) != count*10 {
		return nil, protoErrf("group-sub declares %d offsets but carries %d bytes", count, len(p))
	}
	g.Offsets = make([]PartitionOffset, count)
	for i := range g.Offsets {
		rec := p[i*10:]
		g.Offsets[i] = PartitionOffset{
			Partition: binary.LittleEndian.Uint16(rec),
			Offset:    binary.LittleEndian.Uint64(rec[2:]),
		}
	}
	return g, nil
}

func decodeAssign(p []byte) (*Assign, error) {
	if len(p) < 16 {
		return nil, protoErrf("assign payload too short (%d bytes)", len(p))
	}
	a := &Assign{
		Epoch:         binary.LittleEndian.Uint64(p),
		Stocks:        binary.LittleEndian.Uint32(p[8:]),
		NumPartitions: binary.LittleEndian.Uint16(p[12:]),
	}
	if a.Stocks < 2 || a.Stocks > MaxStocks || a.NumPartitions == 0 {
		return nil, protoErrf("assign declares %d stocks in %d partitions", a.Stocks, a.NumPartitions)
	}
	count := int(binary.LittleEndian.Uint16(p[14:]))
	p = p[16:]
	if len(p) != count*2 {
		return nil, protoErrf("assign declares %d partitions but carries %d bytes", count, len(p))
	}
	a.Partitions = make([]uint16, count)
	for i := range a.Partitions {
		a.Partitions[i] = binary.LittleEndian.Uint16(p[i*2:])
	}
	return a, nil
}

func decodeSnapshot(p []byte) (*SnapshotFrame, error) {
	if len(p) < 2 {
		return nil, protoErrf("snapshot payload too short (%d bytes)", len(p))
	}
	iv, err := decodeInterval(p[2:], "snapshot")
	if err != nil {
		return nil, err
	}
	if len(iv.C) == 0 {
		return nil, protoErrf("empty snapshot")
	}
	return &SnapshotFrame{Partition: binary.LittleEndian.Uint16(p), Interval: iv}, nil
}

func decodeDelta(p []byte) (*DeltaFrame, error) {
	if len(p) < 3 {
		return nil, protoErrf("delta payload too short (%d bytes)", len(p))
	}
	d := &DeltaFrame{Partition: binary.LittleEndian.Uint16(p)}
	switch p[2] {
	case 0:
	case 1:
		d.Sealed = true
	default:
		return nil, protoErrf("delta sealed flag %d", p[2])
	}
	var err error
	if d.Interval, err = decodeInterval(p[3:], "delta"); err != nil {
		return nil, err
	}
	if len(d.C) == 0 && !d.Sealed {
		return nil, protoErrf("empty delta")
	}
	return d, nil
}

func decodeAck(p []byte) (*AckFrame, error) {
	if len(p) != 10 {
		return nil, protoErrf("ack payload %d bytes, want 10", len(p))
	}
	return &AckFrame{
		Partition: binary.LittleEndian.Uint16(p),
		Offset:    binary.LittleEndian.Uint64(p[2:]),
	}, nil
}
