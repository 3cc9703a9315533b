// Package farm is the distributed sweep layer: a coordinator that
// deals the sweep orchestrator's (day × pair-block × param-set) work
// units to remote worker processes over the internal/feed binary
// codec, journals remotely-completed units into the same checkpoint
// journal a single-host shard writes — whose records are the very
// Result frames the workers send — and survives worker
// SIGKILL and network partition by lease-TTL expiry, generation
// fencing and reassignment. It closes the loop the paper opens — the
// 854-hour brute-force sweep cut to cluster time — without weakening
// any single-host guarantee: the merged output of a farm run is
// byte-identical to an uninterrupted backtest.Run of the same
// configuration.
//
// # Ownership and determinism contract
//
// Work is dealt at (day, pair-block) group granularity — the same
// grain the local orchestrator schedules, because one fused
// correlation pass serves all of a group's parameter units. Exactly
// one worker generation may deliver results for a group at a time:
// a Lease carries a generation token that is bumped every time the
// group is (re)assigned, and a Result whose generation is stale — a
// zombie worker that lost its lease to TTL expiry or disconnect — is
// rejected and counted (metrics "farm.results_zombie") rather than
// journaled. Unit values themselves are pure functions of (day, block,
// param) — per-day generator seeding, per-pair warm-start chains,
// block-restricted engine pairs — so even when fencing fails to
// prevent duplicate *computation* (it cannot: a partitioned worker
// computes on, unreachable), duplicate results are bit-identical and
// the first journaled copy is as good as any. Workers and coordinator
// execute groups through the shared sweep.GroupRunner, which is what
// makes a remotely computed unit's bytes equal a local one's.
//
// # Failure model
//
// Worker SIGKILL closes its TCP connection: the coordinator reclaims
// its leases immediately and re-deals them to the next idle worker.
// Network partition (half-open connection, stalled reads) is caught by
// lease TTL: a worker that misses heartbeats for LeaseTTL loses its
// groups to reassignment, and generation fencing rejects whatever it
// later delivers. Wire corruption is caught by the feed codec's
// per-frame CRC — a damaged frame drops the connection, the worker
// reconnects with backoff and re-joins, and the units it was carrying
// re-run. Coordinator death loses nothing durable: the journal holds
// every accepted unit, and a restarted coordinator (same journal)
// re-deals only the missing ones. All of this is exercised by the e2e
// tests (subprocess SIGKILL mid-unit, chaos corrupt/cut dialer) and
// scripts/farm_smoke.sh.
//
// # Coordinator crash tolerance
//
// The coordinator itself is crash-tolerant (see DESIGN.md §11). A
// CRC-guarded manifest alongside the journal persists the coordinator
// epoch, the monotonic session/lease counters, the live lease table
// and the pending order; a restarted coordinator (or a warm standby
// promoted by RunStandby after heartbeat-file silence) claims the next
// epoch, holds the manifest's leases open for one TTL so their owners
// can rejoin, and re-deals only what the journal does not already
// hold. Epoch fencing makes the handoff safe: every durable write
// re-reads the manifest epoch first, so a stale primary's writes fail
// with ErrFenced, and Results stamped with an old epoch are dropped as
// zombies. Workers survive the handoff too — they rejoin with their
// prior session id, held lease ids and a buffer of
// completed-but-unacked Results, which the new coordinator re-confirms
// or absorbs idempotently (unit values are pure, so a redelivered
// Result is bit-identical).
package farm

import "time"

// Default timing parameters. LeaseTTL bounds how long a dead-but-
// connected (partitioned) worker can hold a group; the sweep interval
// is how often expiry is checked and parked workers are heartbeated.
const (
	DefaultLeaseTTL  = 10 * time.Second
	defaultTTLDivide = 4 // sweep cadence = LeaseTTL / defaultTTLDivide
)

// Metrics counter names incremented by the coordinator (see
// internal/metrics). Tests assert on exact deltas; operators watch
// them to see a farm's health at a glance.
const (
	MetricWorkersJoined    = "farm.workers_joined"
	MetricLeasesGranted    = "farm.leases_granted"
	MetricLeaseExpiries    = "farm.lease_expiries"
	MetricLeaseReclaims    = "farm.lease_reclaims"
	MetricResultsAccepted  = "farm.results_accepted"
	MetricResultsZombie    = "farm.results_zombie"
	MetricResultsDuplicate = "farm.results_duplicate"
	MetricResultsLate      = "farm.results_late"
)

// Coordinator-recovery counter names. Restarts counts cold starts that
// found a prior manifest; takeovers counts standby promotions; epoch
// fences counts durable writes a stale incarnation had refused; rejoins
// counts accepted worker session resumes, and rejoin results recovered
// counts buffered unacked Results those resumes redelivered (compute
// that survived a coordinator death without re-running).
const (
	MetricCoordRestarts    = "farm.coordinator_restarts"
	MetricCoordTakeovers   = "farm.coordinator_takeovers"
	MetricCoordEpochFences = "farm.coordinator_epoch_fences"
	MetricCoordRejoins     = "farm.coordinator_rejoins_accepted"
	MetricCoordRecovered   = "farm.coordinator_rejoin_results_recovered"
)
