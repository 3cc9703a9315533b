package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"marketminer/internal/supervise"
)

// Coordinator durable state. The checkpoint journal remains the only
// durable record of *results*; the coordinator manifest adds the small
// remainder a restarted (or failed-over) coordinator cannot rebuild
// from the journal alone: the coordinator epoch (the fencing token
// that outlives any one process), the monotonic session and lease id
// counters (so new grants never collide with ids a previous
// incarnation issued), the live lease table (so a rejoining worker's
// in-flight groups can be re-confirmed instead of re-computed), the
// pending deque order (so a restart re-deals lost work in the same
// front-first order a live coordinator would have). It is a supervise
// snapshot sealed with the sweep fingerprint, so no reader — a standby
// tailing it, a stale primary fence-checking it — ever observes a torn
// or foreign write. Its modification time, moved by every write and by
// every idle sweeper tick's touch, is the primary's liveness beacon: a
// standby that sees it stand still for its takeover TTL declares the
// primary dead. Liveness is judged by change, never by comparing
// clocks across processes.

// errForeignManifest marks a sound manifest written for a different
// sweep: no coordinator of this sweep may serve from it.
var errForeignManifest = errors.New("farm: coordinator manifest belongs to another sweep")

// coordLease is one live lease in the manifest: group gid is held by
// session under the given lease id and fencing generation.
type coordLease struct {
	Gid     int    `json:"gid"`
	Lease   uint64 `json:"lease"`
	Gen     uint64 `json:"gen"`
	Session uint64 `json:"session"`
}

// coordManifest is the coordinator's durable state beyond the journal.
type coordManifest struct {
	Epoch       uint64       `json:"epoch"`
	NextSession uint64       `json:"next_session"`
	NextLease   uint64       `json:"next_lease"`
	Leases      []coordLease `json:"leases"`
	Pending     []int        `json:"pending"`
}

// coordManifestPath derives the manifest path from the journal path.
func coordManifestPath(journalPath string) string { return journalPath + ".coord" }

// readCoordManifest loads the coordinator manifest of the sweep with
// the given fingerprint. A missing file is (nil, nil) — a fresh farm.
// A present-but-damaged or foreign file is an error: epoch
// monotonicity (the whole fencing argument) cannot be trusted from a
// file that fails its checksum, so the caller must decide loudly
// instead of guessing. A sound file of another sweep wraps
// errForeignManifest.
func readCoordManifest(path, fingerprint string) (*coordManifest, error) {
	var m coordManifest
	err := supervise.LoadSnapshot(path, fingerprint, &m)
	if err == nil {
		return &m, nil
	}
	if errors.Is(err, supervise.ErrNoSnapshot) {
		return nil, nil
	}
	raw, _ := os.ReadFile(path)
	v1, fp := readCoordManifestV1(raw)
	if v1 == nil {
		// A snapshot sound under the fingerprint it names is another
		// sweep's.
		var env struct {
			Fingerprint string `json:"fingerprint"`
		}
		if json.Unmarshal(raw, &env) == nil && env.Fingerprint != fingerprint &&
			supervise.LoadSnapshot(path, env.Fingerprint, new(coordManifest)) == nil {
			fp = env.Fingerprint
		}
	}
	switch {
	case v1 != nil && fp == fingerprint:
		return v1, nil
	case fp != "":
		return nil, fmt.Errorf("%w: it records fingerprint %s, not this sweep's %s", errForeignManifest, fp, fingerprint)
	}
	return nil, fmt.Errorf("farm: coordinator manifest: %w", err)
}

// readCoordManifestV1 decodes the v1 format — one {"crc","m"} line
// whose m carries its own schema and fingerprint — so a farm paused
// under it resumes; the next save replaces it with a snapshot. It
// returns nil when raw is not a v1 manifest.
func readCoordManifestV1(raw []byte) (*coordManifest, string) {
	var line struct {
		CRC uint32          `json:"crc"`
		M   json.RawMessage `json:"m"`
	}
	if json.Unmarshal(raw, &line) != nil || line.M == nil || crc32.ChecksumIEEE(line.M) != line.CRC {
		return nil, ""
	}
	var v1 struct {
		Schema      string `json:"schema"`
		Fingerprint string `json:"fingerprint"`
		coordManifest
	}
	if json.Unmarshal(line.M, &v1) != nil || v1.Schema != "marketminer/farm-coordinator/v1" {
		return nil, ""
	}
	return &v1.coordManifest, v1.Fingerprint
}
