// Package sweep is the paper-scale sweep orchestrator: it decomposes
// the Section V brute-force backtest — every pair × parameter set ×
// trading day, the workload the paper prices at 854 hours of
// sequential Matlab — into deterministic work units, schedules them
// across workers and across cooperating processes (shard i of n), and
// checkpoints every completed unit to an append-only journal so an
// interrupted sweep resumes exactly where it stopped.
//
// The decomposition is the shard key (day, pair-block, parameter set):
//
//   - a day is one synthetic trading day (regenerable in isolation —
//     market.Generator seeds each day independently);
//   - a pair-block is a contiguous slice of the canonical pair ids, the
//     unit the correlation engine can compute in isolation because each
//     pair's warm-start chain is independent of every other pair's;
//   - a parameter set is one flat (treatment, level) index.
//
// Units are grouped by (day, pair-block) for execution so the fused
// Maronna+Combined correlation series is computed once per group and
// shared by all parameter sets — the sharing that makes the integrated
// sweep beat the per-pair farm. One driver, GroupRunner, executes every
// group: in memory (Backtest), journaled per shard (Run) or on a remote
// farm worker (internal/farm). The per-pair Approach-2 baseline (Farm)
// shares its bounded day cache. Because every unit's value depends
// only on its own (day, block, set) inputs, any shard assignment,
// worker count, interruption point or resume order yields
// bit-identical merged results; TestShardedMergeEqualsSingleShot and
// TestResumeReproducesSingleShot assert this.
package sweep

import (
	"fmt"
	"hash/fnv"

	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/strategy"
)

// DefaultBlockSize is the default number of pairs per block: at paper
// scale (1830 pairs) it yields 15 blocks × 20 days = 300 groups, fine
// enough that 2–16 shards balance well, coarse enough that the journal
// stays small.
const DefaultBlockSize = 128

// Shard identifies one cooperating process of a sweep: this process
// owns every (day, pair-block) group whose id ≡ Index (mod Count).
// The zero value is invalid; use Shard{0, 1} for a single process.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the "i/n" form used by the -shard flag.
func ParseShard(s string) (Shard, error) {
	var sh Shard
	if _, err := fmt.Sscanf(s, "%d/%d", &sh.Index, &sh.Count); err != nil {
		return Shard{}, fmt.Errorf("sweep: shard %q is not i/n", s)
	}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate checks 0 ≤ Index < Count.
func (s Shard) Validate() error {
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: invalid shard %d/%d", s.Index, s.Count)
	}
	return nil
}

// String renders the shard in the "-shard i/n" flag syntax.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Unit is one checkpointable work item: backtest one parameter set
// over one pair-block for one day.
type Unit struct {
	Day   int // trading day index
	Block int // pair-block index
	Param int // flat parameter index (typeIdx*len(levels) + levelIdx)
}

// Plan is the deterministic decomposition of one sweep configuration
// into units. Two processes that build a Plan from the same
// configuration and block size agree on every id, which is what lets
// shards coordinate through nothing but their journal files.
type Plan struct {
	Levels    []strategy.Params
	Types     []corr.Type
	Days      int
	NumPairs  int
	BlockSize int
}

// NewPlan derives the unit decomposition from a backtest configuration
// whose market configuration has already been sanitised (defaults
// filled) — callers obtain that via market.NewGenerator(cfg.Market)
// and Generator.Config, exactly as NewGroupRunner does.
func NewPlan(cfg backtest.Config, blockSize int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Market.Universe == nil {
		return nil, fmt.Errorf("sweep: configuration has no universe")
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Plan{
		Levels:    cfg.ResolvedLevels(),
		Types:     cfg.ResolvedTypes(),
		Days:      cfg.Market.Days,
		NumPairs:  cfg.Market.Universe.NumPairs(),
		BlockSize: blockSize,
	}, nil
}

// NumBlocks returns the number of pair-blocks.
func (p *Plan) NumBlocks() int { return (p.NumPairs + p.BlockSize - 1) / p.BlockSize }

// NumParams returns |K| = levels × types.
func (p *Plan) NumParams() int { return len(p.Levels) * len(p.Types) }

// NumUnits returns the total unit count of the whole sweep (all
// shards).
func (p *Plan) NumUnits() int { return p.Days * p.NumBlocks() * p.NumParams() }

// NumGroups returns the number of (day, pair-block) execution groups.
func (p *Plan) NumGroups() int { return p.Days * p.NumBlocks() }

// UnitID maps a unit to its dense id; ids order units day-major, then
// block, then parameter set.
func (p *Plan) UnitID(u Unit) int {
	return (u.Day*p.NumBlocks()+u.Block)*p.NumParams() + u.Param
}

// groupUnits returns every unit of group gid, in parameter order.
func (p *Plan) groupUnits(gid int) []Unit {
	units := make([]Unit, p.NumParams())
	for k := range units {
		units[k] = Unit{Day: gid / p.NumBlocks(), Block: gid % p.NumBlocks(), Param: k}
	}
	return units
}

// UnitFromID inverts UnitID.
func (p *Plan) UnitFromID(id int) Unit {
	np := p.NumParams()
	g := id / np
	return Unit{Day: g / p.NumBlocks(), Block: g % p.NumBlocks(), Param: id % np}
}

// GroupID maps (day, block) to its dense group id.
func (p *Plan) GroupID(day, block int) int { return day*p.NumBlocks() + block }

// GroupOwner returns which shard index of n owns a group. Assignment
// is round-robin over group ids so consecutive days spread across
// shards and every shard's workload stays balanced.
func (p *Plan) GroupOwner(gid, n int) int { return gid % n }

// BlockRange returns the canonical pair-id half-open range [lo, hi) of
// block b.
func (p *Plan) BlockRange(b int) (lo, hi int) {
	lo = b * p.BlockSize
	hi = lo + p.BlockSize
	if hi > p.NumPairs {
		hi = p.NumPairs
	}
	return lo, hi
}

// Param returns the full parameter vector of a flat parameter index,
// mirroring backtest.Result.Param.
func (p *Plan) Param(idx int) strategy.Params {
	typeIdx := idx / len(p.Levels)
	return p.Levels[idx%len(p.Levels)].WithType(p.Types[typeIdx])
}

// Fingerprint hashes everything that determines unit identities and
// values: the universe, the calendar, the generator and cleaning
// parameters, the cost model, the parameter grid, and the block size.
// Journals carry it in their header; resuming or merging with a
// mismatched configuration is refused rather than silently producing a
// mixed result. The shard assignment is deliberately excluded — all
// shards of one sweep share a fingerprint.
func Fingerprint(cfg backtest.Config, blockSize int) string {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	h := fnv.New64a()
	mc := cfg.Market
	var symbols []string
	if mc.Universe != nil {
		symbols = mc.Universe.Symbols()
	}
	mc.Universe = nil // pointer identity must not leak into the hash
	fmt.Fprintf(h, "v1|%q|%+v|%+v|%+v|%d|", symbols, mc, cfg.Clean, cfg.Costs, blockSize)
	// Screening changes unit values, so it is fingerprinted — but only
	// when active, which keeps every journal written before the knob
	// existed resumable under its original fingerprint (the zero value
	// reproduces the classic sweep). The literal "f32:false" is what
	// screened journals hashed while the sweep still had a float32
	// option; it stays so those journals keep their fingerprints.
	if cfg.Screen.Enabled() {
		fmt.Fprintf(h, "screen:%+v|f32:false|", cfg.Screen)
	}
	for _, l := range cfg.ResolvedLevels() {
		fmt.Fprintf(h, "%+v|", l)
	}
	for _, t := range cfg.ResolvedTypes() {
		fmt.Fprintf(h, "%s|", t)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
