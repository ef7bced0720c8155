#!/usr/bin/env bash
# Serving-mode smoke test: writes a platform snapshot, boots the
# analysis daemon from it, runs the same app three times and checks
# that the first job runs from its parse, the second (prepared) job
# decodes bodies on demand and stores its callgraph setup, and the
# third (replayed) job reuses the prepared app, replays that setup and
# decodes no more bodies than the prepared one; then cancels an
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
long_job_out=$(mktemp)
snap=$(mktemp -d)/platform.fdps
svc_pid=""
cleanup() {
    [[ -n "$svc_pid" ]] && kill "$svc_pid" 2>/dev/null || true
    rm -rf "$log" "$long_job_out" "$(dirname "$snap")"
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

# Three jobs for the same app: the first runs from its parse and keeps
# nothing but the name, the second prepares the app and stores its
# callgraph setup in the daemon's per-app cache, the third replays
# both. (`|| true`: the client exits 2 when the analysis reports leaks,
# which insecurebank does by design.)
first=$("$bin" client "$addr" analyze insecurebank || true)
cold=$("$bin" client "$addr" analyze insecurebank || true)
warm=$("$bin" client "$addr" analyze insecurebank || true)

# First run: parsed at submission, every body decoded up front, no
# setup kept.
if ! grep -q '"bodies_materialized":0,' <<<"$first" \
    || ! grep -q '"callgraph_cache_misses":1' <<<"$first"; then
    echo "FAIL: first job did not run from its parse: $first" >&2
    exit 1
fi
echo "first run from the parse: OK"

# Replayed job: the daemon prepared insecurebank for the second job
# and serves the third from its per-app cache, preparing nothing.
if ! grep -q '"prepare_us":0,' <<<"$warm"; then
    echo "FAIL: replayed job was prepared again (want prepare_us 0): $warm" >&2
    exit 1
fi
echo "replayed prepared-job cache hit: OK"

# Callgraph setup on the prepared job: the prepared (cold) job builds
# the entry-point model and callgraph (miss), the replayed (warm) job
# replays them (hit). Both setup timings are printed, not compared:
# they swing with the host.
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

# Demand-driven frontend: prepared jobs run against the shared
# platform snapshot and decode bodies on demand; the warm job, whose
# setup the replay above cut short, decodes no more bodies than the
# cold one. Its setup and dataflow timings are printed, not compared:
# both swing with the host.
if ! grep -q '"bodies_materialized":[1-9]' <<<"$cold"; then
    echo "FAIL: prepared job decoded no bodies on demand: $cold" >&2
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
# dedicated exit code 3. It is the daemon's fourth job.
"$bin" client "$addr" analyze stress/6000 >"$long_job_out" 2>&1 &
long_job_pid=$!
for _ in $(seq 1 100); do
    if "$bin" client "$addr" stats | grep -q '"state":"running"'; then
        break
    fi
    sleep 0.1
done
"$bin" client "$addr" cancel 4 >/dev/null
long_job_status=0
wait "$long_job_pid" || long_job_status=$?
if [[ "$long_job_status" -ne 3 ]]; then
    echo "FAIL: cancelled job exited $long_job_status, want 3" >&2
    cat "$long_job_out" >&2
    exit 1
fi
if ! grep -q '"abort_reason":"cancelled"' "$long_job_out"; then
    echo "FAIL: job 4 result is not marked cancelled:" >&2
    cat "$long_job_out" >&2
    exit 1
fi
echo "in-flight cancellation: OK"

"$bin" client "$addr" shutdown >/dev/null
wait "$svc_pid"
svc_pid=""
echo "clean shutdown: OK"
