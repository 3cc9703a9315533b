package bench

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"marketminer/internal/backtest"
	"marketminer/internal/core"
	"marketminer/internal/feed"
)

// hasher folds 64-bit words into FNV-64a.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }

// rows folds one pair's return rows: length, then every bit
// pattern. A nil row and an empty row hash alike (the journal's JSON
// round trip does not distinguish them).
func (h *hasher) rows(rets []float64) {
	h.u64(uint64(len(rets)))
	for _, r := range rets {
		h.f64(r)
	}
}

// HashResult digests a merged sweep result: the trade count and, pair
// by pair, parameter set by parameter set, day by day, every per-trade
// return's bit pattern.
func HashResult(res *backtest.Result) string {
	h := newHasher()
	h.u64(uint64(res.TradeCount))
	for p := range res.Series {
		for k := range res.Series[p] {
			for _, day := range res.Series[p][k].Daily {
				h.rows(day)
			}
		}
	}
	return h.sum()
}

// signals folds one partition's delivered stream in delivery order:
// offsets, pair, interval, kind and both floats' bits.
func (h *hasher) signals(part int, sigs []feed.Signal) {
	h.u64(uint64(part))
	h.u64(uint64(len(sigs)))
	for _, s := range sigs {
		h.u64(s.Offset)
		h.u64(uint64(s.Pair))
		h.u64(uint64(s.S))
		h.u64(uint64(s.Kind))
		h.f64(s.C)
		h.f64(s.Cbar)
	}
}

// hashPipeline digests what the pipeline decided: matrices, accepted
// orders, and every trade of every strategy node.
func hashPipeline(res *core.PipelineResult) string {
	h := newHasher()
	h.u64(uint64(res.Matrices))
	h.u64(uint64(res.Orders))
	for _, trades := range res.Trades {
		h.u64(uint64(len(trades)))
		for _, t := range trades {
			h.u64(uint64(t.PairI))
			h.u64(uint64(t.PairJ))
			h.u64(uint64(t.EntryS))
			h.u64(uint64(t.ExitS))
			h.f64(t.Return)
		}
	}
	return h.sum()
}
