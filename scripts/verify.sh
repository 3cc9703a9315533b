#!/usr/bin/env sh
# Full verification gate: vet, build, and race-enabled tests for every
# package. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

# named REGEX PKG...: fail unless every name in REGEX still starts
# some test in PKG..., so a renamed test cannot silently drop out of a
# gate.
named() {
    regex=$1
    shift
    listed=$(go test -list . "$@")
    for name in $(echo "$regex" | tr '|' ' '); do
        if ! echo "$listed" | grep -Eq "^$name"; then
            echo "gate names $name, which matches no test in $*" >&2
            exit 1
        fi
    done
}

# focus REGEX PKG...: run the tests REGEX names under -race, after
# checking their names with named.
focus() {
    named "$@"
    regex=$1
    shift
    go test -race -run "$regex" "$@"
}

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

echo "== batched-vs-reference bit-identity smoke, pinned robust digests (Day.Series on 128-pair blocks, online Maronna and Combined on every layout), one corr.Day shared by concurrent blocks, and the kernel day's exact warm-start and screening counts"
focus 'TestMatrixEngineMatchesReference|TestBatchDegenerateLanesMatchReference|TestRobustSeriesMatchesParentDigest|TestOnlineRobustMatchesParentDigest|TestDaySharesMoments|TestDayConcurrentBlocks|TestKernelDayWarmStarts|TestKernelDayScreenKeepsHalf' ./internal/corr

echo "== strategy level grid: pinned RunDay digest, grid = lone levels = online Step, zero steady-state allocation"
focus 'TestDayGridMatchesParentRunDay|TestDayGridSteadyStateAllocs|TestStepMatchesParentDigest' ./internal/strategy

echo "== stock-major day preparation: pinned PrepareDay digest at 1 and 4 workers, no day-wide quote slice, one sampling rule, generator stream unchanged with its helper goroutine under -race"
focus 'TestPrepareDayMatchesParentDigest|TestPrepareDayEmptyStockError|TestPrepareDayAllocatesNoQuoteSlice|TestSamplerMatchesPerStockRows|TestGenerateDayBufferNeverRegrows|TestGenerateByStockMatchesGenerateDay' \
    ./internal/backtest ./internal/series ./internal/market

echo "== generated day: pinned GenerateDay digests with no SeqTime tie (61 stocks at two seeds; the 400-stock day runs in go test without -race), pinned mmgen CSV bytes (StreamDay), the merge's tie order and its fuzz seeds"
focus 'TestGenerateDayMatchesParentDigest|TestRunMatchesParentDigest|TestMergeRunsTies|FuzzMergeRuns' ./internal/market ./cmd/mmgen

echo "== online hot loops: pinned online Pearson digest on both kernel tiers, online robust coefficients = batch day series, the cross-moment kernel oracle, a rejected push leaves the engine untouched, PushInto's reused matrix, pair subsets refused, pinned C̄ digest, pinned partition logs clean and killed at every interval, the matrix log trimmed to the slowest partition and held by a killed one, each retained subscriber run written once, -kill outside the day refused, one allocation per decoded batch, the collector's blocked send under cancel, the pinned feed-server log and wire bytes, the server logging the publisher's memory without writing it, Restore's ring-cursor check, the pinned unsupervised pipeline day (strategy nodes' C̄ rings, closes-only bar node), the pinned clean filter decisions, released input-log vectors refilled"
focus 'TestOnlinePearsonMatchesParentDigest|TestOnlineMatchesDaySeries|TestCrossMomentKernelMatchesReference|FuzzCrossMomentKernel|TestRejectedPushLeavesEngineUntouched|TestOnlineEngineMatchesBatch|TestPushIntoReusesOneMatrix|TestOnlineEnginePairSubset|TestEngineSnapshotResumeBitIdentical|TestEngineRestoreRejectsBadSnapshots|FuzzEngineRestore' ./internal/corr
focus 'TestPairRingsMatchesParentDigest|TestSlotMajorRingsMatchPerPairOracle|TestStepAndAppendAllocatePerInterval|TestBrokerLogsMatchParentDigest|TestKillAtEveryInterval|TestMatrixLogFollowsSlowestPartition|TestMatrixLogHeldByKilledPartition|TestSubscriberWritesEachRunOnce|TestInputLogRefillsReleasedVectors' ./internal/broker
focus 'TestServeRejectsKillOutsideTheDay' ./cmd/mmbroker
focus 'TestPipelineMatchesParentDigest' ./internal/core
focus 'TestCleanDayMatchesParentDigest' ./internal/clean
focus 'TestCollectorStopsOnContextCancel|TestCollectorStopsOnCancelWhileConsumerStalled|TestDecodeBatchReusesQuotes|TestServerLogMatchesParentDigest|TestPublishBatchSealsAsPublishDoes|TestPublishBatchLogsCallerMemory|TestServerNeverWritesCallerMemory|TestPublishAfterAliasedTailCopies|TestPublishBatchDayAllocatesLittle|TestSubscribersReadWhilePublisherContinues' ./internal/feed

echo "== the pinned online tests on the pure-Go kernel tier: a 386 test binary runs on an x86-64 host and has no AVX2 backend (and no -race)"
case $(go env GOHOSTARCH) in
amd64 | 386)
    GOARCH=386 go test -run 'TestOnlinePearsonMatchesParentDigest|TestOnlineRobustMatchesParentDigest|TestRobustSeriesMatchesParentDigest|TestOnlineMatchesDaySeries|TestEngineSnapshotResumeBitIdentical|TestEngineFingerprintPinned|TestCrossMomentKernelMatchesReference|FuzzCrossMomentKernel' ./internal/corr
    ;;
*)
    echo "skipped: host is $(go env GOHOSTARCH)"
    ;;
esac

echo "== engine snapshot fingerprint: the exact strings saved snapshots carry, psd=false included"
focus 'TestEngineFingerprintPinned' ./internal/corr

echo "== Figure 1 equals Section V: pipeline trades bit-equal to PrepareDay -> corr.Day.Series -> DayGrid for Pearson, Maronna and Combined, on a 4-stock day and a 20-stock default-market day at M = 50, 100, 200"
focus 'TestPipelineMatchesBatchBacktest' ./internal/core

echo "== Figure 1 equals Section V on the default 61-stock day: all 14 levels x 3 treatments, one pipeline per (M, treatment), without -race"
MM_VERIFY=1 go test -run 'TestPipelineMatchesBatchBacktest' ./internal/core

echo "== supervision: pinned supervised chaotic day (poison quotes, snapshot resume, quarantine); a stage quarantines on the first panic and forwards nothing from it, and consecutive poison opens the circuit"
focus 'TestSupervisedChaoticDayMatchesParentDigest|TestStageQuarantinesOnFirstAttempt|TestStageCircuitBreakerOnConsecutivePoison|TestStageCleanMessageResetsBreaker|TestStageUnquarantinableFailureFailsGraph' ./internal/core ./internal/supervise

echo "== crash path: the supervised pipeline SIGKILLed mid-day resumes to a final snapshot byte-equal to a clean run's (Pearson, Maronna, Combined); garbage and rejected-field snapshots cold-start with the baseline's trades; a foreign fingerprint is never restored; a broker member's hang-up ends its session on a frozen clock"
focus 'TestSupervisedSIGKILLResumesBitIdentical|TestSupervisedCorruptSnapshotColdStarts|TestSupervisedSnapshotFingerprintMismatch|TestHangupEndsSessionOnFrozenClock' ./internal/core ./internal/broker

echo "== one batch driver: in-memory sweep digest pinned to the per-day runner it replaced, Farm = Backtest screened and unscreened, the bounded day cache (singleflight, errors, capacity, resident days over a 20-day plan)"
focus 'TestBacktestMatchesParentDigest|TestFarmMatchesBacktest|TestDayCacheSingleflightAndBound|TestDayCachePropagatesErrors|TestDayCacheCap|TestGroupDispatchBoundsResidentDays' ./internal/sweep

echo "== SIMD bit-identity: vector and scalar tiers vs reference, in one process"
focus 'TestSIMD|FuzzSIMDMatchesScalar' ./internal/corr

echo "== go test -race ./internal/feed ./internal/supervise ./internal/chaos (robustness focus)"
go test -race ./internal/feed ./internal/supervise ./internal/chaos

echo "== redial focus: supervise.Retry's schedule, jitter and Permanent; collector, subscriber and worker reconnects"
focus 'TestRetry|TestRedial|TestRun|TestCollectorDialerMovesToNextAddress|TestCollectorFlakyTransportZeroLoss|TestCollectorHeartbeatTimeout|TestCollectorGivesUpAfterMaxAttempts|TestSubscriberRedialsSilentBroker|TestSubscriberMaxAttemptsCountsConsecutiveFailures|TestEvictionOfLaggingSubscriber' \
    ./internal/supervise ./internal/feed ./internal/broker

echo "== decoder fuzz, 10 s: every frame type incl. interval snapshots/deltas, must error, never panic"
go test -run '^$' -fuzz FuzzDecoder -fuzztime 10s ./internal/feed

echo "== sweep journal fuzz, 10 s: intact records then arbitrary bytes, must heal to a clean reopen"
go test -run '^$' -fuzz FuzzJournal -fuzztime 10s ./internal/sweep

echo "== snapshot fuzz, 10 s: arbitrary file bytes load only when schema, fingerprint and CRC match"
go test -run '^$' -fuzz FuzzLoadSnapshot -fuzztime 10s ./internal/supervise

echo "== quarantine fuzz, 10 s: arbitrary file bytes open, and one Record rewrites them to a clean reopen"
go test -run '^$' -fuzz FuzzOpenQuarantine -fuzztime 10s ./internal/supervise

echo "== chaos spec fuzz, 10 s: ParseSpec never panics, and every accepted spec round-trips through String"
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/chaos
focus 'TestParseSpec|FuzzParseSpec' ./internal/chaos

echo "== batched Maronna fuzz, 10 s: random batches on both dispatch tiers, every lane's fit and weight row bit-equal to the per-pair reference"
go test -run '^$' -fuzz FuzzSIMDMatchesScalar -fuzztime 10s ./internal/corr

echo "== engine snapshot fuzz, 10 s: arbitrary bytes -> json -> Restore never panics; an accepted snapshot round-trips and the next push stays in [-1, 1]"
go test -run '^$' -fuzz FuzzEngineRestore -fuzztime 10s ./internal/corr

echo "== farm manifest fuzz, 10 s: arbitrary .coord bytes -> readCoordManifest -> one restore step never panics, and a manifest that loads loses or doubles no group"
go test -run '^$' -fuzz FuzzCoordManifest -fuzztime 10s ./internal/farm

echo "== day merge fuzz, 10 s: random ascending runs on a time grid (ties within and across stocks, an optional far outlier) merge exactly as a stable sort of their stock-major concatenation, streamed and split in two halves"
go test -run '^$' -fuzz FuzzMergeRuns -fuzztime 10s ./internal/market

echo "== TAQ reader fuzz, 10 s: strict and lenient readers never panic, return only finite quotes with a symbol, and write -> read is a fixed point after one pass"
go test -run '^$' -fuzz FuzzReader -fuzztime 10s ./internal/taq
focus 'TestReaderHeaderAfterLeadingBlankLine|TestReaderMissingHeaderAfterLeadingBlankLine|TestReaderMissingHeader|FuzzReader' ./internal/taq

echo "== state-file focus: snapshot envelope pinned, quarantine v1 fixture, bit-flip heal and re-quarantine"
focus 'TestSnapshot|TestQuarantine|FuzzLoadSnapshot|FuzzOpenQuarantine' ./internal/supervise

echo "== go test -race ./internal/engine ./internal/core (message-passing focus)"
go test -race ./internal/engine ./internal/core

echo "== go test -race ./internal/broker (signal broker focus)"
go test -race ./internal/broker

echo "== broker core: pinned clock-injected broker script digest, exhaustive explorer of the pure core (reduced bound under -race) and its three source mutants (no generation check before publish, no commit clamp, a tick that expires leases before start), the pinned partition logs and kill tests; then the explorer at full bound without -race (one goroutine: the detector only slows it)"
focus 'TestBrokerScriptMatchesParentDigest|TestExplorerBrokerCore|TestExplorerFindsBrokerMutants|TestBrokerLogsMatchParentDigest|TestKillAtEveryInterval|TestMatrixLogHeldByKilledPartition|TestMemberGraceSweep|TestReassignAwayAndBackNoLoss|TestE2EResumeInsideInterval' ./internal/broker
go test -count=1 -run 'TestExplorerBrokerCore' ./internal/broker

echo "== explore is a test-only harness: no non-test file imports it"
if grep -rl --include='*.go' '"marketminer/internal/explore"' . | grep -v '_test\.go$'; then
    echo "internal/explore imported outside _test.go files" >&2
    exit 1
fi

echo "== go test -race ./internal/farm ./internal/feed (distributed sweep farm focus)"
go test -race ./internal/farm ./internal/feed

echo "== coordinator crash-recovery gate: SIGKILL restart, standby takeover and config check, fencing, torn tail, v1 manifest, worker give-up rules"
focus 'TestFarmCoordinatorSIGKILL|TestFarmStandbyTakeover|TestStandbyRejectsBadConfigAtStart|TestStandbyRejectsForeignManifest|TestStandbyHoldsWhileIdlePrimaryTouches|TestFarmEpochFencing|TestFarmClobberedClaimReasserted|TestFarmJournalTornTail|TestFarmV1ManifestRestartKeepsLeasesAndPending|TestFarmV1ManifestFingerprintMismatchRefused|TestFarmCoordinatorMetrics|TestFarmWorkerComputeErrorIsTerminal|TestFarmWorkerGrantResetsAttempts|TestFarmUnreachableCoordinatorRetriesThenFails' ./internal/farm

echo "== farm coordinator core: pinned Serve script digest, exhaustive explorer (reduced bound under -race) incl. the abort bounds of property 4, its mutation check, the DESIGN 11 open case, the manifest fuzz seed corpus, empty -connect entries; then the explorer at full bound without -race (one goroutine: the detector only slows it)"
focus 'TestCoordinatorScriptMatchesParentDigest|TestExplorerCoordinatorCore|TestExplorerFindsUnfencedAppend|TestExplorerReissuedIDsHarmless|FuzzCoordManifest|TestDialerWithoutAddressesFails|TestRunWorkRejectsEmptyConnectEntry' ./internal/farm ./internal/feed ./cmd/mmfarm
go test -count=1 -run 'TestExplorer' ./internal/farm

echo "== go test -race ./..."
go test -race ./...

echo "== bench smoke: go test -run '^\$' -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

sh scripts/sweep_smoke.sh
sh scripts/broker_smoke.sh
sh scripts/farm_smoke.sh

echo "== mmbench smoke: online_saturate, 2 s, untraced, no failed operation"
bash cmd/mmbench/run.sh --workload online_saturate --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed":0'

echo "== mmbench smoke: sweep_robust, 2 s, untraced: journal -> merge -> golden hash -> 32-pair oracle"
bash cmd/mmbench/run.sh --workload sweep_robust --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed":0'

echo "== mmbench smoke: sweep_wide_pearson, 2 s, untraced: level grid + per-day moment table -> golden hash -> 32-pair oracle"
bash cmd/mmbench/run.sh --workload sweep_wide_pearson --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed":0'

echo "== mmbench smoke: sweep_wide_pearson, 2 s, traced: the traced pass rebuilds each day through GenerateDay -> clean.Clean -> Sampler and must reproduce the stock-major sweep's merged hash"
bash cmd/mmbench/run.sh --workload sweep_wide_pearson --seconds 2 --trace 1 | tail -n 1 | grep -q '"failed":0'

echo "== kernel ratios on the 8-stock kernel day, without -race: fusion, matrix engine (Pearson, fused), batched scalar tier, screened pipeline, AVX2 tier and its pack overhead; each prints PASS, FAIL or unresolved with its quartiles"
ratios='TestRatioFusion|TestRatioEnginePearson|TestRatioEngineFused|TestRatioBatched|TestRatioScreenedPipeline|TestRatioSIMD|TestRatioSIMDPackOverhead'
named "$ratios" ./internal/corr
MM_VERIFY=1 go test -count=1 -v -run "$ratios" ./internal/corr

echo "verify: OK"
