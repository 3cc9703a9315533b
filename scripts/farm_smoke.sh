#!/usr/bin/env sh
# Distributed sweep farm smoke: a coordinator plus two local workers —
# one on a chaos-injected link, one SIGKILLed mid-sweep — must still
# produce merged results byte-identical to the unsharded single-host
# run, and a re-serve of the finished journal must execute nothing.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; kill $(jobs -p) 2>/dev/null || true' EXIT

echo "== farm smoke: coordinator + 2 workers (1 chaotic, 1 SIGKILLed), merged vs single-host"
go build -o "$tmp/mmbacktest" ./cmd/mmbacktest
go build -o "$tmp/mmfarm" ./cmd/mmfarm

# 8 stocks x 2 days x 3 levels x 3 types in 8-pair blocks: 8 groups /
# 72 units — a few seconds of work, so the SIGKILL lands mid-sweep.
SWEEP="-scale tiny -levels 3 -block 8"
ADDR=127.0.0.1:9753

# Reference: the uninterrupted single-host run.
"$tmp/mmbacktest" $SWEEP -json "$tmp/single.json" >/dev/null

# Farm run. The doomed worker is hard-killed shortly after it starts;
# its leases are reclaimed and the chaotic worker (corrupted and cut
# every few KB, reconnecting each time) finishes the sweep.
"$tmp/mmfarm" serve -listen $ADDR -journal "$tmp/farm.journal" $SWEEP \
    -ttl 2s -merge-out "$tmp/merged.json" -quiet > "$tmp/serve.log" 2>&1 &
serve_pid=$!
sleep 0.3

"$tmp/mmfarm" work -connect $ADDR $SWEEP -name doomed -quiet > "$tmp/doomed.log" 2>&1 &
doomed_pid=$!
"$tmp/mmfarm" work -connect $ADDR $SWEEP -name chaotic -quiet \
    -chaos 'seed=11,corrupt=16384,cut=65536' > "$tmp/chaotic.log" 2>&1 &

sleep 1.5
kill -9 "$doomed_pid" 2>/dev/null || true

wait "$serve_pid" || { echo "farm smoke: coordinator failed:"; cat "$tmp/serve.log"; exit 1; } >&2

cmp "$tmp/single.json" "$tmp/merged.json" || {
    echo "farm smoke: merged farm output differs from single-host run" >&2
    exit 1
}

# The kill must actually have cost the coordinator a lease (reclaimed
# on disconnect or expired by TTL) — otherwise the recovery path was
# never on the hook.
grep -Eq 'farm\.lease_(reclaims|expiries) = [1-9]' "$tmp/serve.log" || {
    echo "farm smoke: SIGKILL never interrupted a leased group; recovery untested:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
}

# Re-serving the finished journal must restore everything and execute
# nothing (no listener traffic needed: it exits immediately).
"$tmp/mmfarm" serve -listen $ADDR -journal "$tmp/farm.journal" $SWEEP -quiet > "$tmp/reserve.log" 2>&1
grep -q ' 0 from 0 worker' "$tmp/reserve.log" || {
    echo "farm smoke: re-serve of a complete journal executed units:" >&2
    cat "$tmp/reserve.log" >&2
    exit 1
}

echo "== farm smoke: coordinator SIGKILLed mid-sweep, restarted on the same journal"

# This time the *coordinator* is hard-killed mid-sweep. The restart
# must claim a higher epoch from the manifest, restore the journaled
# units, accept the worker's session resume, and finish byte-identical.
# A bigger grid (8 levels x 3 types in 4-pair blocks: 14 groups / 336
# units, several seconds of work) guarantees the kill lands mid-sweep.
SWEEP2="-scale tiny -levels 8 -block 4"
"$tmp/mmbacktest" $SWEEP2 -json "$tmp/single2.json" >/dev/null

# serve1 runs without -quiet: its "N/M units journaled" progress lines
# (every 50 units) are what the kill below waits for.
"$tmp/mmfarm" serve -listen $ADDR -journal "$tmp/restart.journal" $SWEEP2 \
    -ttl 2s > "$tmp/serve1.log" 2>&1 &
serve1_pid=$!
sleep 0.3
"$tmp/mmfarm" work -connect $ADDR $SWEEP2 -name restart-rider -quiet > "$tmp/rider.log" 2>&1 &
rider_pid=$!

# Kill the moment the first progress line reports units journaled —
# polling instead of sleeping keeps the kill mid-sweep on any machine.
polls=0
while :; do
    grep -q ' units journaled' "$tmp/serve1.log" && break
    polls=$((polls + 1))
    [ "$polls" -ge 400 ] && {
        echo "farm smoke: sweep never reported journaled units; cannot test the restart" >&2
        cat "$tmp/serve1.log" "$tmp/rider.log" >&2
        exit 1
    }
    sleep 0.05
done
kill -9 "$serve1_pid" 2>/dev/null || true
wait "$serve1_pid" 2>/dev/null || true
sleep 0.2

"$tmp/mmfarm" serve -listen $ADDR -journal "$tmp/restart.journal" $SWEEP2 \
    -ttl 2s -merge-out "$tmp/restart-merged.json" -quiet > "$tmp/serve2.log" 2>&1 || {
    echo "farm smoke: restarted coordinator failed:" >&2
    cat "$tmp/serve2.log" >&2
    exit 1
}
wait "$rider_pid" || { echo "farm smoke: worker did not survive the coordinator restart:"; cat "$tmp/rider.log"; exit 1; } >&2

cmp "$tmp/single2.json" "$tmp/restart-merged.json" || {
    echo "farm smoke: output after coordinator kill+restart differs from single-host run" >&2
    exit 1
}

# Hard assertions that the recovery path was actually on the hook: the
# restart found a prior manifest, restored journaled units instead of
# recomputing them, and accepted the worker's session resume.
grep -q 'farm\.coordinator_restarts = 1' "$tmp/serve2.log" || {
    echo "farm smoke: restart did not register as a coordinator restart:" >&2
    cat "$tmp/serve2.log" >&2
    exit 1
}
grep -Eq 'farm\.coordinator_rejoins_accepted = [1-9]' "$tmp/serve2.log" || {
    echo "farm smoke: no worker session resume was accepted after the restart:" >&2
    cat "$tmp/serve2.log" >&2
    exit 1
}
grep -q '(0 restored' "$tmp/serve2.log" && {
    echo "farm smoke: restart restored nothing; the SIGKILL missed the sweep:" >&2
    cat "$tmp/serve2.log" >&2
    exit 1
}

echo "farm smoke: OK (SIGKILL + chaos farm output byte-identical to single-host; finished journal re-serves as a no-op; coordinator kill+restart recovers byte-identically)"
