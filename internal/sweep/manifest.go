package sweep

import (
	"encoding/json"

	"marketminer/internal/supervise"
)

// ManifestSchema versions the progress manifest format.
const ManifestSchema = "marketminer/sweep-manifest/v1"

// Manifest is the machine-readable progress snapshot a shard writes
// alongside its journal. External schedulers poll it instead of
// parsing log lines: it answers how far along the shard is, how fast
// it is going, when it will finish, and how healthy the robust
// kernel's warm-start chain is.
type Manifest struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Of          int    `json:"of"`
	BlockSize   int    `json:"block_size"`

	// UnitsDone / UnitsTotal cover this shard; SweepUnits is the whole
	// sweep across all shards.
	UnitsDone  int `json:"units_done"`
	UnitsTotal int `json:"units_total"`
	SweepUnits int `json:"sweep_units"`

	Trades         int64   `json:"trades"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	UnitsPerSecond float64 `json:"units_per_second"`
	EtaSeconds     float64 `json:"eta_seconds"`

	Warm RobustSummary `json:"warm"`

	// Done marks a shard that has completed every one of its units.
	Done bool `json:"done"`
}

func manifestFrom(h Header, info ProgressInfo, warm RobustSummary, done bool) Manifest {
	return Manifest{
		Schema:         ManifestSchema,
		Fingerprint:    h.Fingerprint,
		Shard:          h.ShardIndex,
		Of:             h.ShardCount,
		BlockSize:      h.BlockSize,
		UnitsDone:      info.Done,
		UnitsTotal:     info.Total,
		SweepUnits:     info.SweepUnits,
		Trades:         info.Trades,
		ElapsedSeconds: info.Elapsed.Seconds(),
		UnitsPerSecond: info.Rate,
		EtaSeconds:     info.ETA.Seconds(),
		Warm:           warm,
		Done:           done,
	}
}

// writeManifest replaces the manifest atomically, so a poller never
// observes a half-written one. It stays plain indented JSON rather than
// a CRC-sealed snapshot: schedulers read it with any JSON tool.
func writeManifest(path string, m Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return supervise.WriteFileAtomic(path, append(b, '\n'))
}
