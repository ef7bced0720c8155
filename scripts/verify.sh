#!/usr/bin/env bash
# Tier-1 verification gate plus solver statistics.
#
# Usage: scripts/verify.sh [--full]
#   default : tier-1 gate (release build + root tests) + solver stats
#   --full  : additionally runs the whole workspace test suite and the
#             perfbench smoke test (perfbench is a package of its own,
#             outside the workspace, so `--workspace` does not reach it)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

if [[ "${1:-}" == "--full" ]]; then
    echo "== full workspace test suite"
    cargo test --workspace -q
    echo "== perfbench smoke test"
    cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
fi

# Snapshot the committed benchmark numbers before solver_stats
# overwrites the file — the regression gate below compares against them.
git show HEAD:BENCH_solver.json > BENCH_solver.baseline.json 2>/dev/null || : > BENCH_solver.baseline.json

# Every solver_stats mode enforces its own gates and exits nonzero when
# one fails (report identity across modes, warm summary-cache hits and
# saved path edges, lazy bodies skipped, the service and service-load
# phases, ground-truth agreement); see the binary's module docs. This
# script only runs the modes, plus the one gate that needs the committed
# baseline.
echo "== solver stats (writes BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- BENCH_solver.json >/dev/null

echo "== BENCH_solver.json comparison block"
sed -n '/"comparison"/,$p' BENCH_solver.json

# Allocation/latency regression gate: the default sequential corpus
# sweep must not allocate more than ~5% over the committed baseline,
# and dataflow time must stay within 1.5x (generous — wall time on the
# shared single-core runner is noisy; allocations are deterministic).
mode_field() { # <file> <mode> <field>
    awk -v mode="\"$2\"," -v field="\"$3\":" '
        $1 == "\"mode\":" { in_mode = ($2 == mode) }
        in_mode && $1 == field { gsub(/,/, "", $2); print $2; exit }
    ' "$1"
}
echo "== regression gate vs committed BENCH_solver.json"
base_allocs=$(mode_field BENCH_solver.baseline.json sequential-interned allocations)
base_dataflow=$(mode_field BENCH_solver.baseline.json sequential-interned dataflow_ms)
rm -f BENCH_solver.baseline.json
if [[ -z "${base_allocs}" || -z "${base_dataflow}" ]]; then
    echo "no committed sequential-interned baseline; skipping regression gate"
else
    new_allocs=$(mode_field BENCH_solver.json sequential-interned allocations)
    new_dataflow=$(mode_field BENCH_solver.json sequential-interned dataflow_ms)
    echo "allocations: ${new_allocs} (baseline ${base_allocs}), dataflow_ms: ${new_dataflow} (baseline ${base_dataflow})"
    if ! awk -v new="$new_allocs" -v base="$base_allocs" 'BEGIN { exit !(new <= base * 1.05) }'; then
        echo "FAIL: corpus allocations regressed beyond 5% of the committed baseline" >&2
        exit 1
    fi
    if ! awk -v new="$new_dataflow" -v base="$base_dataflow" 'BEGIN { exit !(new <= base * 1.5) }'; then
        echo "FAIL: corpus dataflow time regressed beyond 1.5x the committed baseline" >&2
        exit 1
    fi
fi

# Serving-mode smoke: platform-snapshot round trip, daemon boot from
# the snapshot, cold->warm cache sharing between jobs, warm
# callgraph-cache replay with setup strictly below the cold job's,
# warm setup below dataflow, in-flight cancellation, clean shutdown.
echo "== serving-mode smoke"
scripts/service_smoke.sh

# Service benchmark: floods the daemon with the corpus twice (cold then
# warm against one summary cache) and splices per-job wall/queue times
# into BENCH_solver.json.
echo "== service stats (splices \"service\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode service BENCH_solver.json >/dev/null

# Fleet-load benchmark: two contexts reloaded from disk after the cache
# directory moves between daemons, namespace isolation, priority
# latency, overload backpressure, cancel storm and streamed-report
# identity.
echo "== service-load stats (splices \"service_load\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode service-load BENCH_solver.json >/dev/null

# Ground-truth harness: generate the seeded synthetic corpus, sweep the
# full engine matrix (sequential/parallel at 1 and 4 taint threads x
# eager/lazy x cold/warm caches) and serve the packed archives through a
# daemon under the --allow-apps policy.
echo "== ground-truth stats (splices \"ground_truth\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode ground-truth BENCH_solver.json >/dev/null

echo "verify: OK"
