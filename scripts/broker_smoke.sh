#!/usr/bin/env sh
# Signal-broker delivery smoke: serve the deterministic synthetic day
# four ways — clean, with a partition processor hard-killed mid-day,
# with chaos corrupt/cut injected on the subscriber's wire, and with a
# processor hard-killed before the first ready window — and require
# every subscriber's delivered-stream digest to be identical.
# This is the shell-level restatement of the broker's delivery
# contract: crashes, rebalances and wire faults must never lose,
# duplicate or reorder a committed signal.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'kill $(cat "$tmp_pids" 2>/dev/null) 2>/dev/null || true; rm -rf "$tmp"' EXIT
tmp_pids="$tmp/pids"
: > "$tmp_pids"

echo "== broker smoke: clean vs kill+rebalance vs chaos-wire vs early-kill digests"
go build -o "$tmp/mmbroker" ./cmd/mmbroker

port1=$((21000 + $$ % 9000))
port2=$((port1 + 1))
port3=$((port1 + 2))
day="-n 8 -m 10 -intervals 80 -partitions 4 -seed 42"

# Clean run: one member gets the whole day.
"$tmp/mmbroker" -mode serve -listen "127.0.0.1:$port1" -await-subs 1 $day \
    > "$tmp/serve_clean.log" 2>&1 &
echo $! >> "$tmp_pids"
clean=$("$tmp/mmbroker" -mode subscribe -connect "127.0.0.1:$port1" \
    -group g -member m-0 -from-start -quiet 2>"$tmp/sub_clean.err")

# Faulted run: partition 1's processor is hard-killed mid-day (lease
# expiry must rebalance it); one subscriber on a clean wire, one
# behind deterministic corrupt/cut chaos.
"$tmp/mmbroker" -mode serve -listen "127.0.0.1:$port2" -await-subs 2 -kill 1@40 $day \
    > "$tmp/serve_fault.log" 2>&1 &
echo $! >> "$tmp_pids"
"$tmp/mmbroker" -mode subscribe -connect "127.0.0.1:$port2" \
    -group g -member m-0 -from-start -quiet > "$tmp/d_fault.txt" 2>"$tmp/sub_fault.err" &
subpid=$!
chaotic=$("$tmp/mmbroker" -mode subscribe -connect "127.0.0.1:$port2" \
    -group h -member solo -from-start -quiet \
    -chaos seed=7,corrupt=16384,cut=32768 2>"$tmp/sub_chaos.err")
wait "$subpid"
faulted=$(cat "$tmp/d_fault.txt")

# Early kill: partition 2's processor dies after interval 5, before the
# first ready window at -m 10, so its relaunch resumes from an empty log.
"$tmp/mmbroker" -mode serve -listen "127.0.0.1:$port3" -await-subs 1 -kill 2@5 $day \
    > "$tmp/serve_early.log" 2>&1 &
echo $! >> "$tmp_pids"
early=$("$tmp/mmbroker" -mode subscribe -connect "127.0.0.1:$port3" \
    -group g -member m-0 -from-start -quiet 2>"$tmp/sub_early.err")

grep -q "hard-killing partition 1" "$tmp/serve_fault.log" \
    || { echo "broker smoke: faulted serve never killed partition 1" >&2; exit 1; }
grep -q "lease expired; relaunching" "$tmp/serve_fault.log" \
    || { echo "broker smoke: kill did not trigger a lease rebalance" >&2; exit 1; }
grep -q "hard-killing partition 2" "$tmp/serve_early.log" \
    || { echo "broker smoke: early-kill serve never killed partition 2" >&2; exit 1; }

if [ "$clean" != "$faulted" ]; then
    echo "broker smoke: digest after kill+rebalance ($faulted) != clean run ($clean)" >&2
    exit 1
fi
if [ "$clean" != "$chaotic" ]; then
    echo "broker smoke: digest through chaos wire ($chaotic) != clean run ($clean)" >&2
    exit 1
fi

if [ "$clean" != "$early" ]; then
    echo "broker smoke: digest after a kill before the first ready window ($early) != clean run ($clean)" >&2
    exit 1
fi

echo "broker smoke: OK (clean, kill+rebalance, chaos-wire and early-kill subscribers all delivered digest $clean)"
