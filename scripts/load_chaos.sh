#!/usr/bin/env bash
# Load + storage-chaos harness: proves the serving stack is
# overload-proof and that degraded storage never degrades results. The
# invariants under test:
#
#   1. Under an open-loop burst far beyond capacity, every non-shed
#      response is byte-identical to the same request served by a
#      quiet, cache-less server (the usload -baseline gate).
#   2. Shed accounting is exact: the server's admitted/shed counter
#      deltas equal the client's accepted/shed tallies, request for
#      request (the usload -verify-server conservation gate).
#   3. Cache hits are byte-identical to recomputation, and a corrupted
#      cache entry is quarantined and recomputed — never served.
#   4. All of the above holds WITH injected storage faults (ENOSPC
#      mid-write, fsync EIO, directory-fsync EIO) hammering every
#      atomic write in the persistence, cache and checkpoint paths.
#   5. Server-side P99 queue delay stays bounded, and both the
#      server's and usload's Prometheus expositions stay valid.
#
# Phases:
#   A  quiet baseline: cache off, no faults, queue big enough that
#      nothing sheds; records every response's report SHA-256
#   B  overload + chaos: small queue, adaptive admission, result cache
#      on, storage faults injected; 1000-request burst compared
#      response-by-response against the baseline
#   C  corruption: every cache entry is deliberately bit-flipped; the
#      next run must quarantine and recompute (byte-identical), and
#      the run after that must hit the re-stored clean entries
#
# Artifacts (JSONL, summaries, Prometheus scrapes, server logs) are
# copied to $LOAD_OUT when set, so CI can upload them.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
LOAD_OUT="${LOAD_OUT:-}"
PORT=18495
BASE="http://127.0.0.1:$PORT"
SEED=11
REQUESTS=1000
SERVE_PID=""

cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    if [ -n "$LOAD_OUT" ]; then
        mkdir -p "$LOAD_OUT"
        cp -f "$WORK"/*.jsonl "$LOAD_OUT/" 2>/dev/null || true
        cp -f "$WORK"/*.json "$LOAD_OUT/" 2>/dev/null || true
        cp -f "$WORK"/*.prom "$LOAD_OUT/" 2>/dev/null || true
        cp -f "$WORK"/*.log "$LOAD_OUT/" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "load_chaos: FAIL: $*" >&2
    exit 1
}

start_server() { # extra usserve flags after the fixed ones
    "$WORK/usserve" -addr "127.0.0.1:$PORT" "$@" 2>>"$WORK/usserve.log" &
    SERVE_PID=$!
    # Readiness, not liveness: the worker must actually accept jobs.
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "usserve did not become ready on port $PORT"
}

stop_server() {
    kill -TERM "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}

summary_field() { # $1 = summary file, $2 = field name (top-level integer)
    grep -o "\"$2\": [0-9-]*" "$1" | head -1 | grep -o '[0-9-]*$' || echo 0
}

echo "load_chaos: building usserve + usload + usstat"
go build -o "$WORK/usserve" ./cmd/usserve
go build -o "$WORK/usload" ./cmd/usload
go build -o "$WORK/usstat" ./cmd/usstat

# --- Phase A: quiet baseline (cache off, no faults, nothing sheds). ----
echo "load_chaos: A: quiet baseline run ($REQUESTS requests, cache off)"
start_server -dir "$WORK/state-quiet" -queue 4096 -workers 4 -admit-target=-1s
"$WORK/usload" -target "$BASE" -requests $REQUESTS -seed $SEED \
    -wait 120s -out "$WORK/baseline.jsonl" -summary "$WORK/baseline-summary.json" \
    -verify-server 2>>"$WORK/usload-baseline.log" ||
    fail "baseline run failed (tail: $(tail -3 "$WORK/usload-baseline.log"))"
stop_server
BASE_DONE=$(summary_field "$WORK/baseline-summary.json" done)
[ "$BASE_DONE" = "$REQUESTS" ] || fail "baseline completed $BASE_DONE/$REQUESTS requests"
echo "load_chaos: A: baseline complete ($BASE_DONE/$REQUESTS done, 0 shed)"

# --- Phase B: overload + cache + injected storage faults. --------------
echo "load_chaos: B: overload burst with cache + ENOSPC/fsync/dirsync faults"
CACHE="$WORK/cache"
start_server -dir "$WORK/state-chaos" -queue 64 -workers 4 \
    -admit-target 50ms -admit-interval 500ms \
    -cache-dir "$CACHE" -inject-disk-faults enospc=7,fsync=11,dirsync=13 \
    -log "$WORK/usserve-chaos.jsonl" -log-level warn
"$WORK/usload" -target "$BASE" -requests $REQUESTS -seed $SEED \
    -wait 120s -out "$WORK/overload.jsonl" -summary "$WORK/overload-summary.json" \
    -prom "$WORK/usload.prom" -baseline "$WORK/baseline.jsonl" \
    -verify-server -min-peak 256 -queue-delay-p99-max 60s \
    2>>"$WORK/usload-overload.log" ||
    fail "overload gates failed (tail: $(tail -6 "$WORK/usload-overload.log"))"
curl -fsS "$BASE/metrics?format=prom" >"$WORK/usserve-chaos.prom" || true
"$WORK/usstat" -addr "$BASE" -validate-prom >/dev/null ||
    fail "server Prometheus exposition invalid under chaos"
"$WORK/usstat" -addr "$BASE" >"$WORK/dashboard-chaos.log" ||
    fail "usstat dashboard errored against the chaotic server"
grep -q 'admission:' "$WORK/dashboard-chaos.log" ||
    fail "usstat dashboard shows no admission line"
stop_server

SHED=$(summary_field "$WORK/overload-summary.json" shed)
DONE=$(summary_field "$WORK/overload-summary.json" done)
COMPARED=$(summary_field "$WORK/overload-summary.json" baseline_compared)
[ "$SHED" -ge 1 ] || fail "an overload burst shed nothing (queue 64, $REQUESTS offered)"
[ "$DONE" -ge 1 ] || fail "the overloaded server completed nothing"
[ "$COMPARED" -ge 1 ] || fail "no responses were compared against the baseline"
# The faults must have fired, or phase B proved nothing about storage
# chaos: the server counts every failed persist and cache store.
FIRED=$(awk '$1 == "serve_persist_errors" || $1 == "serve_cache_store_errors" { n += $2 } END { print n + 0 }' \
    "$WORK/usserve-chaos.prom")
[ "$FIRED" -ge 1 ] ||
    fail "no injected storage fault fired during the burst (serve_persist_errors + serve_cache_store_errors = $FIRED)"
echo "load_chaos: B: $DONE done / $SHED shed of $REQUESTS; $COMPARED responses byte-identical to baseline; conservation exact; $FIRED storage faults fired"

# --- Phase C: corrupt every cache entry; quarantine + recompute. -------
ENTRIES=$(ls "$CACHE"/*.entry 2>/dev/null | wc -l)
[ "$ENTRIES" -ge 1 ] || fail "phase B stored no cache entries to corrupt"
echo "load_chaos: C: bit-flipping $ENTRIES cache entries"
for f in "$CACHE"/*.entry; do
    size=$(stat -c%s "$f")
    printf '\xff' | dd of="$f" bs=1 seek=$((size - 2)) conv=notrunc 2>/dev/null
done

# Fresh state dir, same (corrupted) cache, no faults: every cache read
# must detect the corruption, quarantine the entry and recompute.
start_server -dir "$WORK/state-verify" -queue 4096 -workers 4 -admit-target=-1s \
    -cache-dir "$CACHE" -log "$WORK/usserve-verify.jsonl" -log-level warn
"$WORK/usload" -target "$BASE" -requests 60 -seed $SEED \
    -wait 120s -out "$WORK/corrupt.jsonl" -summary "$WORK/corrupt-summary.json" \
    -baseline "$WORK/baseline.jsonl" -verify-server \
    2>>"$WORK/usload-corrupt.log" ||
    fail "corrupted-cache run gates failed (tail: $(tail -6 "$WORK/usload-corrupt.log"))"

QUARANTINES=$(curl -fsS "$BASE/metrics" | grep -o '"serve.cache.quarantines": [0-9]*' | grep -o '[0-9]*$' || echo 0)
[ "$QUARANTINES" -ge 1 ] || fail "no quarantines counted after corrupting every entry"
QFILES=$(ls "$CACHE/quarantine" 2>/dev/null | wc -l)
[ "$QFILES" -ge 1 ] || fail "quarantine directory is empty after corrupted reads"
# Responses cached *within* this run are fine — the first request per
# key quarantined the corrupt entry and re-stored a clean one; the
# -baseline gate above already proved every response byte-identical.

# Same keys again: the recomputation re-stored clean entries, so this
# run must hit them — and still match the baseline byte for byte.
"$WORK/usload" -target "$BASE" -requests 60 -seed $SEED \
    -wait 120s -summary "$WORK/rehit-summary.json" \
    -baseline "$WORK/baseline.jsonl" \
    2>>"$WORK/usload-rehit.log" ||
    fail "cache-rehit run gates failed (tail: $(tail -6 "$WORK/usload-rehit.log"))"
REHIT=$(summary_field "$WORK/rehit-summary.json" cached_responses)
[ "$REHIT" -ge 1 ] || fail "no cache hits after quarantine-and-recompute re-stored the entries"
stop_server
echo "load_chaos: C: $QUARANTINES corrupted entries quarantined ($QFILES files), recomputed byte-identical, then $REHIT served from the clean re-stored cache"

echo "load_chaos: PASS (byte-identical responses under overload + storage faults, exact shed accounting, quarantine-and-recompute cache integrity)"
