#!/usr/bin/env bash
# Tier-1 verification gate plus solver statistics.
#
# Usage: scripts/verify.sh [--full]
#   default : tier-1 gate (release build + root tests) + solver stats
#   --full  : additionally runs the whole workspace test suite (every
#             test binary, even after one fails), the service crate's
#             tests again in release (their timing-bound tests must
#             hold at release speed too), the perfbench smoke
#             test (perfbench is a package of its own, outside the
#             workspace, so `--workspace` does not reach it), the
#             workspace rustdoc build and clippy on every target, both
#             with warnings as errors, and the formatting check
#             (`cargo fmt --all -- --check` against `rustfmt.toml`)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

if [[ "${1:-}" == "--full" ]]; then
    echo "== full workspace test suite"
    # Every test binary runs even after one fails, so a failure does not
    # hide the results of the binaries after it.
    cargo test --workspace -q --no-fail-fast
    echo "== service tests in release"
    cargo test --release -q -p flowdroid-service
    echo "== perfbench smoke test"
    cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
    echo "== rustdoc (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    echo "== clippy (warnings are errors)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
    echo "== formatting (rustfmt.toml)"
    cargo fmt --all -- --check
fi

# Snapshot the committed benchmark numbers before solver_stats
# overwrites the file — the regression gate below compares against them.
git show HEAD:BENCH_solver.json > BENCH_solver.baseline.json 2>/dev/null || : > BENCH_solver.baseline.json
trap 'rm -f BENCH_solver.baseline.json' EXIT

# solver_stats enforces its own gates and exits nonzero when one fails
# (report identity between the eager and lazy frontends, lazy bodies
# skipped, the ladder's pops and bytes per propagation, ground-truth
# agreement); see the binary's module docs. This script only runs it,
# plus the one gate that needs the committed baseline.
echo "== solver stats (writes BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- BENCH_solver.json >/dev/null

echo "== BENCH_solver.json comparison block"
sed -n '/"comparison"/,$p' BENCH_solver.json

# Allocation regression gate: neither the default sequential corpus
# sweep (each app run from its parse) nor the demand-driven sweep (SDEX
# encode, lazy decode and body materialization per job) may allocate more than 5%
# over the committed baseline, counted both as allocations and as bytes
# requested. The counts are deterministic (one thread, fixed corpus),
# so the gate does not flake with the host. dataflow_ms is printed for
# the record but not gated: a single-shot timing against a number
# recorded on another host is noise; perfbench owns repeated,
# host-scaled timing. A baseline that predates the allocated_bytes
# field skips the byte gate.
mode_field() { # <file> <mode> <field>
    awk -v mode="\"$2\"," -v field="\"$3\":" '
        $1 == "\"mode\":" { in_mode = ($2 == mode) }
        in_mode && $1 == field { gsub(/,/, "", $2); print $2; exit }
    ' "$1"
}
within_5pct() { # <new> <base>
    awk -v new="$1" -v base="$2" 'BEGIN { exit !(new <= base * 1.05) }'
}
echo "== regression gate vs committed BENCH_solver.json"
for mode in sequential-interned demand-lazy; do
    base_allocs=$(mode_field BENCH_solver.baseline.json "$mode" allocations)
    base_bytes=$(mode_field BENCH_solver.baseline.json "$mode" allocated_bytes)
    new_allocs=$(mode_field BENCH_solver.json "$mode" allocations)
    new_bytes=$(mode_field BENCH_solver.json "$mode" allocated_bytes)
    new_dataflow=$(mode_field BENCH_solver.json "$mode" dataflow_ms)
    echo "${mode}: allocations: ${new_allocs} (baseline ${base_allocs:-none})," \
        "allocated_bytes: ${new_bytes} (baseline ${base_bytes:-none})," \
        "dataflow_ms: ${new_dataflow} (not gated)"
    if [[ -z "${base_allocs}" ]]; then
        echo "no committed ${mode} baseline; skipping its regression gate"
        continue
    fi
    if ! within_5pct "$new_allocs" "$base_allocs"; then
        echo "FAIL: ${mode} corpus allocations regressed beyond 5% of the committed baseline" >&2
        exit 1
    fi
    if [[ -z "${base_bytes}" ]]; then
        echo "committed ${mode} baseline has no allocated_bytes; skipping the byte gate"
    elif ! within_5pct "$new_bytes" "$base_bytes"; then
        echo "FAIL: ${mode} corpus allocated bytes regressed beyond 5% of the committed baseline" >&2
        exit 1
    fi
done

# Serving-mode smoke: platform-snapshot round trip, daemon boot from
# the snapshot, warm prepared-job reuse and callgraph-setup replay, no more
# bodies decoded warm than cold, in-flight cancellation, clean
# shutdown.
echo "== serving-mode smoke"
scripts/service_smoke.sh

echo "verify: OK"
