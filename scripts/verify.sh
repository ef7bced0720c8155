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
#             workspace, so `--workspace` does not reach it) and the
#             workspace rustdoc build and clippy on every target, both
#             with warnings as errors
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
fi

# Snapshot the committed benchmark numbers before solver_stats
# overwrites the file — the regression gate below compares against them.
git show HEAD:BENCH_solver.json > BENCH_solver.baseline.json 2>/dev/null || : > BENCH_solver.baseline.json

# Every solver_stats mode enforces its own gates and exits nonzero when
# one fails (report identity across modes, lazy bodies skipped, the
# ladder's bytes per propagation, the service and service-load phases,
# ground-truth agreement); see the binary's module docs. This
# script only runs the modes, plus the one gate that needs the committed
# baseline.
echo "== solver stats (writes BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- BENCH_solver.json >/dev/null

echo "== BENCH_solver.json comparison block"
sed -n '/"comparison"/,$p' BENCH_solver.json

# Allocation regression gate: the default sequential corpus sweep must
# not allocate more than 5% over the committed baseline, counted both
# as allocations and as bytes requested. Both counts are deterministic
# (one thread, fixed corpus), so the gate does not flake with the host.
# dataflow_ms is printed for the record but not gated: a single-shot
# timing against a number recorded on another host is noise;
# perfbench owns repeated, host-scaled timing. A baseline that predates
# the allocated_bytes field skips the byte gate.
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
base_allocs=$(mode_field BENCH_solver.baseline.json sequential-interned allocations)
base_bytes=$(mode_field BENCH_solver.baseline.json sequential-interned allocated_bytes)
rm -f BENCH_solver.baseline.json
new_allocs=$(mode_field BENCH_solver.json sequential-interned allocations)
new_bytes=$(mode_field BENCH_solver.json sequential-interned allocated_bytes)
new_dataflow=$(mode_field BENCH_solver.json sequential-interned dataflow_ms)
echo "allocations: ${new_allocs} (baseline ${base_allocs:-none})," \
    "allocated_bytes: ${new_bytes} (baseline ${base_bytes:-none})," \
    "dataflow_ms: ${new_dataflow} (not gated)"
if [[ -z "${base_allocs}" ]]; then
    echo "no committed sequential-interned baseline; skipping regression gate"
else
    if ! within_5pct "$new_allocs" "$base_allocs"; then
        echo "FAIL: corpus allocations regressed beyond 5% of the committed baseline" >&2
        exit 1
    fi
    if [[ -z "${base_bytes}" ]]; then
        echo "committed baseline has no allocated_bytes; skipping the byte gate"
    elif ! within_5pct "$new_bytes" "$base_bytes"; then
        echo "FAIL: corpus allocated bytes regressed beyond 5% of the committed baseline" >&2
        exit 1
    fi
fi

# Serving-mode smoke: platform-snapshot round trip, daemon boot from
# the snapshot, warm prepared-job reuse and callgraph-setup replay, no more
# bodies decoded warm than cold, in-flight cancellation, clean
# shutdown.
echo "== serving-mode smoke"
scripts/service_smoke.sh

# Service benchmark: floods the daemon with the corpus twice (cold, then
# warm against its per-app cache of prepared jobs) and splices
# per-job wall/queue times into BENCH_solver.json.
echo "== service stats (splices \"service\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode service BENCH_solver.json >/dev/null

# Fleet-load benchmark: priority ordering on one worker, overload
# backpressure, cancel storm and streamed-report identity.
echo "== service-load stats (splices \"service_load\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode service-load BENCH_solver.json >/dev/null

# Ground-truth harness: generate the seeded synthetic corpus, sweep the
# three-engine matrix (eager reference, lazy cold, lazy with the
# callgraph setup replayed) and serve the packed archives through a daemon under
# the --allow-apps policy.
echo "== ground-truth stats (splices \"ground_truth\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode ground-truth BENCH_solver.json >/dev/null

echo "verify: OK"
