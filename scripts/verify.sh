#!/usr/bin/env sh
# Full verification gate: vet, build, and race-enabled tests for every
# package. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== package docs: every internal package documents itself"
for d in internal/*/; do
    name=$(basename "$d")
    if ! grep -l -r "^// Package $name " "$d" --include='*.go' >/dev/null 2>&1; then
        echo "missing package doc: $d" >&2
        exit 1
    fi
done

echo "== go build ./..."
go build ./...

echo "== cross-arch builds: the SIMD dispatch must degrade, not break"
GOARCH=arm64 go build ./...
GOARCH=386 go build ./...

echo "== go test -race ./internal/sweep ./internal/sched (orchestrator focus)"
go test -race ./internal/sweep ./internal/sched

echo "== go test -race ./internal/corr ./internal/sched (matrix engine focus)"
go test -race ./internal/corr ./internal/sched

echo "== go test -race ./internal/screen ./internal/corr (screening + batched kernel focus)"
go test -race ./internal/screen ./internal/corr

echo "== batched-vs-reference bit-identity smoke"
go test -race -run 'TestMatrixEngineMatchesReference|TestBatchDegenerateLanesMatchReference' ./internal/corr

echo "== SIMD bit-identity: vector and scalar tiers vs reference, in one process"
go test -race -run 'TestSIMD|FuzzSIMDMatchesScalar' ./internal/corr

echo "== go test -race ./internal/feed ./internal/supervise ./internal/chaos (robustness focus)"
go test -race ./internal/feed ./internal/supervise ./internal/chaos

echo "== decoder fuzz, 10 s: every frame type incl. interval snapshots/deltas, must error, never panic"
go test -run '^$' -fuzz FuzzDecoder -fuzztime 10s ./internal/feed

echo "== sweep journal fuzz, 10 s: intact records then arbitrary bytes, must heal to a clean reopen"
go test -run '^$' -fuzz FuzzJournal -fuzztime 10s ./internal/sweep

echo "== go test -race ./internal/engine ./internal/core (message-passing focus)"
go test -race ./internal/engine ./internal/core

echo "== go test -race ./internal/broker (signal broker focus)"
go test -race ./internal/broker

echo "== go test -race ./internal/farm ./internal/feed (distributed sweep farm focus)"
go test -race ./internal/farm ./internal/feed

echo "== coordinator crash-recovery gate: SIGKILL restart, standby takeover, fencing, torn tail"
go test -race -run 'TestFarmCoordinatorSIGKILL|TestFarmStandbyTakeover|TestFarmEpochFencing|TestFarmJournalTornTail|TestFarmCoordinatorMetrics|TestFarmWorkerBackoff' ./internal/farm

echo "== go test -race ./..."
go test -race ./...

echo "== bench smoke: go test -run '^\$' -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

sh scripts/sweep_smoke.sh
sh scripts/chaos_smoke.sh
sh scripts/broker_smoke.sh
sh scripts/farm_smoke.sh

echo "== mmbench smoke: online_saturate, 2 s, untraced, no failed operation"
bash cmd/mmbench/run.sh --workload online_saturate --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed":0'

echo "== mmbench smoke: sweep_robust, 2 s, untraced: journal -> merge -> golden hash -> 32-pair oracle"
bash cmd/mmbench/run.sh --workload sweep_robust --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed":0'

echo "== bench gate: fresh kernel ratios + scaling efficiency vs committed baselines"
bench_tmp=$(mktemp /tmp/mm_bench_gate.XXXXXX.json)
scaling_tmp=$(mktemp /tmp/mm_scaling_gate.XXXXXX.json)
trap 'rm -f "$bench_tmp" "$scaling_tmp"' EXIT
go run ./cmd/mmscale -stocks 8 -days 1 -levels 2 -workers 1 -bench-json "$bench_tmp" -scaling-json "$scaling_tmp" >/dev/null
go run ./cmd/mmbenchgate -fresh "$bench_tmp" -committed BENCH_corr.json \
    -fresh-scaling "$scaling_tmp" -committed-scaling BENCH_scaling.json

echo "verify: OK"
