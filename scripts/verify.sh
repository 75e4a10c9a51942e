#!/usr/bin/env bash
# Hermetic verification: build, test, lint and smoke-run the workspace
# with networking disabled. The workspace has zero external dependencies
# (rng/proptest/bench harness are all in-tree), so every step must pass
# with --offline against an empty cargo registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> cargo clippy --all-targets --workspace --offline -- -D warnings"
cargo clippy --all-targets --workspace --offline -- -D warnings

echo "==> zero-alloc steady state smoke (counting global allocator, release)"
# The flyweight engine must retire RPCs without touching the heap once
# warm: the counting allocator asserts two disjoint steady-state windows
# allocate identically (and near zero). Run it in release so the test
# exercises the same codegen as the benchmarks.
cargo test -q --release --offline -p nfsperf-fleet --test zero_alloc

echo "==> peak heap per in-flight flyweight client (counting global allocator, release)"
# With every client of a 50k tier in flight at once, the live-heap
# high-water mark per client must stay under the test's budget, so
# per-RPC engine bookkeeping cannot creep back in. The measured figure
# is echoed, so a failing gate's size shows in the log.
out="$(cargo test -q --release --offline -p nfsperf-fleet --test peak_heap -- --nocapture 2>&1)" \
    || { echo "$out"; echo "FAIL: peak heap gate"; exit 1; }
echo "$out" | grep "peak heap per in-flight client:" \
    || { echo "$out"; echo "FAIL: peak heap gate printed no measurement"; exit 1; }

echo "==> heap bytes per payload byte of a TCP bulk stream (counting global allocator, release)"
# A payload byte is copied into the send ring, from the ring into a pooled
# datagram and from the datagram into the receiver's buffer, with no
# per-segment allocation of its own: a 4 MiB transfer on a warm
# connection must stay under the test's bytes-per-payload-byte budget.
# The measured figure is echoed, so a failing gate's size shows in the log.
out="$(cargo test -q --release --offline -p nfsperf-tcp --test stream_alloc -- --nocapture 2>&1)" \
    || { echo "$out"; echo "FAIL: stream allocation gate"; exit 1; }
echo "$out" | grep "stream heap bytes per payload byte:" \
    || { echo "$out"; echo "FAIL: stream allocation gate printed no measurement"; exit 1; }

echo "==> host-time benchmark tests (perfbench, release)"
# The benchmark package has its own workspace. Its tests drive every
# workload at smoke size through the CLI, including the mirror world
# that must reproduce each call's simulated figures bit for bit and the
# per-seed conservation checks.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> quickstart smoke run"
out="$(cargo run -q --release --offline --example quickstart)"
echo "$out"
# The example prints "  write throughput :    <mbps> MB/s"; require > 0.
echo "$out" | awk '
    /write throughput/ {
        seen = 1
        if ($4 + 0 <= 0) { print "FAIL: zero write throughput"; exit 1 }
    }
    END {
        if (!seen) { print "FAIL: no throughput line in quickstart output"; exit 1 }
    }'

echo "==> quickstart smoke run over TCP"
out="$(cargo run -q --release --offline --example quickstart -- --transport tcp)"
echo "$out"
echo "$out" | awk '
    /write throughput/ {
        seen = 1
        if ($4 + 0 <= 0) { print "FAIL: zero write throughput over TCP"; exit 1 }
    }
    /RPC transport/ {
        if ($3 != "(tcp):") { print "FAIL: quickstart did not mount over TCP"; exit 1 }
    }
    END {
        if (!seen) { print "FAIL: no throughput line in TCP quickstart output"; exit 1 }
    }'

# Every sweep's quick CSV must be byte-identical at --jobs 4 and --jobs 1
# and to its golden (megafleet at the golden's 1k and 10k flyweights).
# The sweeps' quick-size laws (fairness, starvation, regimes, memory
# budget) are asserted on the same grids by tests/golden.rs above.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
for sweep in transport fleet qos megafleet cawl netqos; do
    echo "==> $sweep smoke run (quick, --jobs 4 vs --jobs 1 vs golden)"
    args=(--quick)
    if [ "$sweep" = megafleet ]; then
        args+=(--counts 1000,10000)
    fi
    csv="$scratch/$sweep.csv"
    cargo run -q --release --offline --bin nfsperf -- "$sweep" "${args[@]}" --jobs 4 --out "$csv"
    cargo run -q --release --offline --bin nfsperf -- "$sweep" "${args[@]}" --jobs 1 --out "$csv.serial" > /dev/null
    cmp "$csv" "$csv.serial" \
        || { echo "FAIL: $sweep sweep differs between --jobs 4 and --jobs 1"; exit 1; }
    cmp "$csv" "tests/golden/$sweep-quick.csv" \
        || { echo "FAIL: $sweep quick CSV differs from tests/golden/$sweep-quick.csv"; exit 1; }
done

echo "==> harness micro-benchmark (results/bench.json vs committed baseline)"
# Compare against the committed baseline; a sweep whose events/sec drops
# more than the tolerance below it fails the build. The default 30% is
# generous because quick cells run ~50-150 ms and CI machines are noisy;
# override with NFSPERF_BENCH_TOLERANCE=0.50 etc. when needed.
out="$(cargo run -q --release --offline --bin nfsperf -- bench --jobs 4 \
    --out results/bench.json \
    --against results/bench_baseline.json \
    --tolerance "${NFSPERF_BENCH_TOLERANCE:-0.30}")"
echo "$out"
grep -q '"sweeps"' results/bench.json || { echo "FAIL: malformed bench.json"; exit 1; }
# Every measured sweep must have retired simulated events (the megafleet
# CSV carries simulated results only, so this is where a cell that
# retired no events fails).
if grep -q '"events": 0,' results/bench.json; then
    echo "FAIL: a bench sweep retired zero events"
    exit 1
fi

echo "==> no external dependencies"
if grep -rn "^rand\|^proptest\|^criterion" Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: external dependency lines found above"
    exit 1
fi

echo "verify: all checks passed"
