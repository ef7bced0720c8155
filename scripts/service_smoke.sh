#!/usr/bin/env bash
# Serving-mode smoke test: writes a platform snapshot, boots the
# analysis daemon from it, runs the same app twice and checks that the
# second (warm) job reuses the daemon's prepared (parsed) app, replays
# the callgraph setup the first run stored on it, and decodes no more
# bodies than the cold one, cancels an
# in-flight job from a second connection, and shuts down cleanly.
#
# Expects target/release/flowdroid to exist (scripts/verify.sh builds
# it first). Exits nonzero on any failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=./target/release/flowdroid
if [[ ! -x "$bin" ]]; then
    echo "FAIL: $bin missing; run cargo build --release first" >&2
    exit 1
fi

log=$(mktemp)
job3_out=$(mktemp)
snap=$(mktemp -d)/platform.fdps
svc_pid=""
cleanup() {
    [[ -n "$svc_pid" ]] && kill "$svc_pid" 2>/dev/null || true
    rm -rf "$log" "$job3_out" "$(dirname "$snap")"
}
trap cleanup EXIT

# Platform snapshot round trip: build it once, boot the daemon from it.
"$bin" snapshot "$snap"
if [[ ! -s "$snap" ]]; then
    echo "FAIL: flowdroid snapshot wrote no file" >&2
    exit 1
fi
echo "platform snapshot: OK"

"$bin" serve --listen 127.0.0.1:0 --workers 2 --platform-snapshot "$snap" \
    >"$log" 2>&1 &
svc_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "FAIL: daemon never announced its address" >&2
    cat "$log" >&2
    exit 1
fi
echo "daemon listening on $addr"

# Two jobs for the same app: the first prepares it and stores its
# callgraph setup in the daemon's per-app cache, the second replays
# both. (`|| true`: the client exits 2 when the analysis
# reports leaks, which insecurebank does by design.)
cold=$("$bin" client "$addr" analyze insecurebank || true)
warm=$("$bin" client "$addr" analyze insecurebank || true)

# Prepared job: the daemon parsed insecurebank for the cold job and
# serves the warm job from its per-app cache, preparing nothing.
if ! grep -q '"prepare_us":0,' <<<"$warm"; then
    echo "FAIL: warm job was prepared again (want prepare_us 0): $warm" >&2
    exit 1
fi
echo "warm prepared-job cache hit: OK"

# Callgraph setup on the prepared job: the cold job builds the
# entry-point model and callgraph (miss), the warm job replays them
# (hit). Both setup timings are printed, not compared: they swing with
# the host.
if ! grep -q '"callgraph_cache_misses":1' <<<"$cold"; then
    echo "FAIL: cold job should build its callgraph setup: $cold" >&2
    exit 1
fi
if ! grep -q '"callgraph_cache_hits":1' <<<"$warm"; then
    echo "FAIL: warm job replayed no stored callgraph setup: $warm" >&2
    exit 1
fi
cold_setup=$(grep -o '"setup_us":[0-9]*' <<<"$cold" | grep -o '[0-9]*$')
warm_cg_setup=$(grep -o '"setup_us":[0-9]*' <<<"$warm" | grep -o '[0-9]*$')
echo "warm callgraph-setup replay (setup ${warm_cg_setup:-?} us, cold ${cold_setup:-?} us): OK"

# Demand-driven frontend: jobs run against the shared platform
# snapshot and decode bodies on demand; the warm job, whose setup the
# replay above cut short, decodes no more bodies than the cold one.
# Its setup and dataflow timings are printed, not compared: both swing
# with the host.
if ! grep -q '"bodies_materialized":[1-9]' <<<"$cold"; then
    echo "FAIL: cold job decoded no bodies on demand: $cold" >&2
    exit 1
fi
cold_bodies=$(grep -o '"bodies_materialized":[0-9]*' <<<"$cold" | grep -o '[0-9]*$')
warm_bodies=$(grep -o '"bodies_materialized":[0-9]*' <<<"$warm" | grep -o '[0-9]*$')
if [[ -z "$warm_bodies" || "$warm_bodies" -gt "$cold_bodies" ]]; then
    echo "FAIL: warm job decoded ${warm_bodies:-?} bodies, more than the cold job's $cold_bodies" >&2
    exit 1
fi
warm_setup=$(grep -o '"setup_us":[0-9]*' <<<"$warm" | grep -o '[0-9]*$')
warm_dataflow=$(grep -o '"dataflow_us":[0-9]*' <<<"$warm" | grep -o '[0-9]*$')
echo "warm job: $warm_bodies bodies decoded (cold $cold_bodies), setup ${warm_setup:-?} us, dataflow ${warm_dataflow:-?} us: OK"

# Cancel an in-flight job: submit a long synthetic job, wait until a
# worker picks it up, then cancel it from a second connection. The
# blocked client must come back promptly with an aborted result and the
# dedicated exit code 3.
"$bin" client "$addr" analyze stress/6000 >"$job3_out" 2>&1 &
job3_pid=$!
for _ in $(seq 1 100); do
    if "$bin" client "$addr" stats | grep -q '"state":"running"'; then
        break
    fi
    sleep 0.1
done
"$bin" client "$addr" cancel 3 >/dev/null
job3_status=0
wait "$job3_pid" || job3_status=$?
if [[ "$job3_status" -ne 3 ]]; then
    echo "FAIL: cancelled job exited $job3_status, want 3" >&2
    cat "$job3_out" >&2
    exit 1
fi
if ! grep -q '"abort_reason":"cancelled"' "$job3_out"; then
    echo "FAIL: job 3 result is not marked cancelled:" >&2
    cat "$job3_out" >&2
    exit 1
fi
echo "in-flight cancellation: OK"

"$bin" client "$addr" shutdown >/dev/null
wait "$svc_pid"
svc_pid=""
echo "clean shutdown: OK"
