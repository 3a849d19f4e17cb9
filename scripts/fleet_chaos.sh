#!/usr/bin/env bash
# Fleet chaos harness: proves the distributed-campaign correctness bar
# across real processes and real kills. The invariant under test: the
# usfleet coordinator's merged report is byte-identical to a direct
# single-process usfault run of the same campaign — for 1, 2 and 8
# workers, and under chaos (SIGKILL of a worker AND of the coordinator
# mid-campaign, then restart and resume from the crash-atomic
# checkpoint). Alongside the identity bar, the failure machinery must
# be observable: retry, lease-expiry and hedge events in the
# structured logs and the Prometheus exposition, and one trace ID per
# shard job shared by coordinator and worker telemetry.
#
# Phases:
#   A  direct usfault reference run
#   B  worker-count identity matrix: 1, 2, 8 workers
#   C  chaos: 3 workers; SIGKILL one worker, then SIGKILL the
#      coordinator; restart both; resume must skip completed shards
#   D  lease expiry: SIGSTOP a worker so its leases time out
#   E  hedging: tail-of-campaign stragglers re-dispatched to the idle
#      worker, first result wins
#
# Artifacts (logs + Prometheus scrapes) are copied to $FLEET_OUT when
# set, so CI can upload them.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
FLEET_OUT="${FLEET_OUT:-}"
COORD_STATUS=127.0.0.1:18470
COORD_BASE="http://$COORD_STATUS"
SEED=7 TRIALS=512 WINDOW=256
WORKER_PIDS=()
COORD_PID=""

cleanup() {
    [ -n "$COORD_PID" ] && kill -9 "$COORD_PID" 2>/dev/null || true
    for pid in ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"}; do
        kill -CONT "$pid" 2>/dev/null || true
        kill -9 "$pid" 2>/dev/null || true
    done
    if [ -n "$FLEET_OUT" ]; then
        mkdir -p "$FLEET_OUT"
        cp -f "$WORK"/*.jsonl "$FLEET_OUT/" 2>/dev/null || true
        cp -f "$WORK"/*.log "$FLEET_OUT/" 2>/dev/null || true
        cp -f "$WORK"/prom-*.txt "$FLEET_OUT/" 2>/dev/null || true
        cp -f "$WORK"/report-*.txt "$FLEET_OUT/" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "fleet_chaos: FAIL: $*" >&2
    exit 1
}

worker_port() { echo $((18480 + $1)); }

start_worker() { # $1 = index (state dir + log are keyed by it)
    local i=$1 port
    port=$(worker_port "$i")
    "$WORK/usserve" -addr "127.0.0.1:$port" -dir "$WORK/wstate-$i" -timeout 5m \
        -log "$WORK/worker-$i.jsonl" -log-level debug \
        2>>"$WORK/worker-$i.log" &
    WORKER_PIDS[$i]=$!
    # Gate on readiness, not liveness: /healthz answers 200 for the
    # whole process lifetime (including drain), while /readyz only
    # turns 200 once the worker will actually accept jobs.
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$port/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "worker $i did not become ready on port $port"
}

stop_workers() {
    for pid in ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"}; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"}; do
        wait "$pid" 2>/dev/null || true
    done
    WORKER_PIDS=()
}

worker_urls() { # $1 = count
    local urls="" i
    for i in $(seq 1 "$1"); do
        urls="$urls,http://127.0.0.1:$(worker_port "$i")"
    done
    echo "${urls#,}"
}

start_coordinator() { # $1 = workers csv, $2 = report path, $3 = log path, extra flags after
    local urls=$1 out=$2 log=$3
    shift 3
    "$WORK/usfleet" -workers "$urls" \
        -seed $SEED -trials $TRIALS -window $WINDOW \
        -heartbeat 250ms -status "$COORD_STATUS" \
        -out "$out" -log "$log" -log-level debug "$@" \
        2>>"$WORK/coord.log" &
    COORD_PID=$!
}

wait_coordinator() { # $1 = max seconds; coordinator exit 0 = report written
    local deadline=$(($(date +%s) + $1))
    while kill -0 "$COORD_PID" 2>/dev/null; do
        [ "$(date +%s)" -lt "$deadline" ] || fail "coordinator did not finish within $1s"
        sleep 0.2
    done
    wait "$COORD_PID" || fail "coordinator exited non-zero (tail: $(tail -3 "$WORK/coord.log"))"
    COORD_PID=""
}

shards_done() {
    curl -fsS "$COORD_BASE/status" 2>/dev/null |
        grep -o '"shards_done": [0-9]*' | grep -o '[0-9]*' || echo 0
}

wait_shards_done() { # $1 = threshold, $2 = max seconds
    for _ in $(seq 1 $(($2 * 10))); do
        if [ "$(shards_done)" -ge "$1" ]; then
            return 0
        fi
        sleep 0.1
    done
    fail "fleet never reached $1 completed shards (at $(shards_done))"
}

echo "fleet_chaos: building usfault + usserve + usfleet + usstat"
go build -o "$WORK/usfault" ./cmd/usfault
go build -o "$WORK/usserve" ./cmd/usserve
go build -o "$WORK/usfleet" ./cmd/usfleet
go build -o "$WORK/usstat" ./cmd/usstat

# --- Phase A: direct single-process reference. -------------------------
echo "fleet_chaos: A: direct reference run"
"$WORK/usfault" -seed $SEED -n $TRIALS -window $WINDOW -o "$WORK/report-direct.txt"
[ -s "$WORK/report-direct.txt" ] || fail "empty direct report"

# --- Phase B: worker-count identity matrix. ----------------------------
for n in 1 2 8; do
    echo "fleet_chaos: B: $n-worker fleet run"
    for i in $(seq 1 "$n"); do start_worker "$i"; done
    start_coordinator "$(worker_urls "$n")" "$WORK/report-w$n.txt" "$WORK/fleet-w$n.jsonl"
    wait_coordinator 180
    stop_workers
    cmp "$WORK/report-direct.txt" "$WORK/report-w$n.txt" ||
        fail "$n-worker merged report differs from the direct run"
done
echo "fleet_chaos: B: reports byte-identical across worker counts {1,2,8}"

# --- Phase C: SIGKILL a worker and the coordinator mid-campaign. -------
echo "fleet_chaos: C: chaos run (3 workers)"
for i in 1 2 3; do start_worker "$i"; done
CKPT="$WORK/fleet.ckpt"
start_coordinator "$(worker_urls 3)" "$WORK/report-chaos.txt" "$WORK/fleet-chaos-1.jsonl" \
    -checkpoint "$CKPT"

wait_shards_done 8 60
echo "fleet_chaos: C: SIGKILL worker 1 at $(shards_done) shards"
kill -9 "${WORKER_PIDS[1]}"
# Kill the coordinator on a shard count, not after a fixed sleep: with
# long-polled heartbeats a second is a third of the campaign, and the
# kill must land mid-campaign for the resume below to prove anything.
wait_shards_done 14 60
SHARDS_AT_KILL=$(shards_done)
echo "fleet_chaos: C: SIGKILL coordinator at $SHARDS_AT_KILL shards"
kill -9 "$COORD_PID"
COORD_PID=""
[ "$SHARDS_AT_KILL" -lt 63 ] || fail "the campaign finished before the coordinator kill ($SHARDS_AT_KILL shards)"
[ -s "$CKPT" ] || fail "no checkpoint survived the coordinator kill"
CKPT_LINES_AT_KILL=$(wc -l <"$CKPT")
[ "$CKPT_LINES_AT_KILL" -ge 15 ] || fail "checkpoint too small at kill: $CKPT_LINES_AT_KILL lines"
# One header line plus one per shard: 64 lines is a finished campaign.
[ "$CKPT_LINES_AT_KILL" -lt 64 ] || fail "the campaign finished before the coordinator kill ($CKPT_LINES_AT_KILL checkpoint lines)"

echo "fleet_chaos: C: restarting coordinator (worker 1 still dead) from $CKPT_LINES_AT_KILL checkpoint lines"
start_coordinator "$(worker_urls 3)" "$WORK/report-chaos.txt" "$WORK/fleet-chaos-2.jsonl" \
    -checkpoint "$CKPT"

# The dead worker draws connection-refused retries; scrape the fleet's
# Prometheus exposition while that is happening and gate on it.
FOUND_RETRY=0
for _ in $(seq 1 100); do
    if curl -fsS "$COORD_BASE/metrics?format=prom" >"$WORK/prom-chaos.txt" 2>/dev/null &&
        grep -q '^fleet_retries' "$WORK/prom-chaos.txt"; then
        FOUND_RETRY=1
        break
    fi
    kill -0 "$COORD_PID" 2>/dev/null || break
    sleep 0.1
done
[ "$FOUND_RETRY" = 1 ] || fail "fleet_retries never appeared in the Prometheus exposition with a dead worker"
"$WORK/usstat" -addr "$COORD_BASE" -validate-prom >/dev/null ||
    fail "fleet Prometheus exposition failed schema validation"
"$WORK/usstat" -addr "$COORD_BASE" -fleet >"$WORK/fleet-dashboard.log" 2>/dev/null ||
    fail "usstat -fleet dashboard errored against the coordinator"

echo "fleet_chaos: C: restarting worker 1"
start_worker 1
wait_coordinator 180
stop_workers

cmp "$WORK/report-direct.txt" "$WORK/report-chaos.txt" ||
    fail "chaos-run merged report differs from the direct run"
grep -q '"msg":"fleet start"' "$WORK/fleet-chaos-2.jsonl" || fail "no fleet-start event after restart"
RESUMED=$(grep '"msg":"fleet start"' "$WORK/fleet-chaos-2.jsonl" | grep -o '"resumed":[0-9]*' | grep -o '[0-9]*' || true)
[ -n "$RESUMED" ] && [ "$RESUMED" -ge 14 ] || fail "restarted coordinator resumed only ${RESUMED:-0} shards (checkpoint had $CKPT_LINES_AT_KILL lines)"
grep -q '"msg":"shard retry"' "$WORK/fleet-chaos-1.jsonl" "$WORK/fleet-chaos-2.jsonl" ||
    fail "no shard-retry events in the chaos logs despite a killed worker"

# One trace ID per shard job, shared across coordinator and worker: take
# a merged shard's trace from the second coordinator log and require the
# same ID on the worker-side job events.
# `|| true` matters: head -1 SIGPIPEs the upstream grep, and under
# pipefail + errexit that would kill the whole script silently.
TRACE=$(grep '"msg":"shard merged"' "$WORK/fleet-chaos-2.jsonl" | head -1 |
    grep -o '"trace":"[a-f0-9]*"' | cut -d'"' -f4 || true)
[ -n "$TRACE" ] || fail "no merged-shard trace in the coordinator log"
# Two-step on purpose: `grep | grep -q` under pipefail dies of SIGPIPE
# when -q short-circuits with upstream output still in flight.
grep -h "\"trace\":\"$TRACE\"" "$WORK"/worker-*.jsonl >"$WORK/trace-hits.txt" || true
grep -q '"component":"serve' "$WORK/trace-hits.txt" ||
    fail "trace $TRACE from the coordinator never appears in any worker log"
echo "fleet_chaos: C: resumed $RESUMED shards; report byte-identical; trace $TRACE spans coordinator and worker"

# --- Phase D: lease expiry via a stopped (but living) worker. ----------
echo "fleet_chaos: D: lease-expiry run (SIGSTOP a worker)"
for i in 1 2; do start_worker "$i"; done
start_coordinator "$(worker_urls 2)" "$WORK/report-lease.txt" "$WORK/fleet-lease.jsonl" \
    -lease 3s -missed-heartbeats 100000 -hedge-after=-1ms -breaker-threshold 100000
wait_shards_done 4 60
kill -STOP "${WORKER_PIDS[2]}"
echo "fleet_chaos: D: worker 2 stopped at $(shards_done) shards; waiting for lease expiry"
FOUND_EXPIRY=0
for _ in $(seq 1 300); do
    curl -fsS "$COORD_BASE/metrics?format=prom" >"$WORK/prom-lease.txt" 2>/dev/null || true
    if grep -q '^fleet_lease_expired' "$WORK/prom-lease.txt"; then
        FOUND_EXPIRY=1
        break
    fi
    kill -0 "$COORD_PID" 2>/dev/null || break
    sleep 0.1
done
kill -CONT "${WORKER_PIDS[2]}"
[ "$FOUND_EXPIRY" = 1 ] || fail "no lease expiry surfaced in the exposition with a stopped worker"
wait_coordinator 180
stop_workers
cmp "$WORK/report-direct.txt" "$WORK/report-lease.txt" ||
    fail "lease-expiry-run merged report differs from the direct run"
grep -q '"msg":"lease expired"' "$WORK/fleet-lease.jsonl" ||
    fail "no lease-expired events in the structured log"
echo "fleet_chaos: D: leases expired, shards re-dispatched, report byte-identical"

# --- Phase E: hedged re-dispatch of stragglers. ------------------------
echo "fleet_chaos: E: hedging run (aggressive hedge-after)"
for i in 1 2; do start_worker "$i"; done
start_coordinator "$(worker_urls 2)" "$WORK/report-hedge.txt" "$WORK/fleet-hedge.jsonl" \
    -hedge-after 1ms
wait_coordinator 180
stop_workers
cmp "$WORK/report-direct.txt" "$WORK/report-hedge.txt" ||
    fail "hedging-run merged report differs from the direct run"
grep -q '"hedge":true' "$WORK/fleet-hedge.jsonl" ||
    fail "no hedged leases in the hedging-run log"
# Every hedge resolves one of four ways, all logged: the hedge wins the
# merge; the loser notices and is cancelled; the loser's job finishes
# anyway and is discarded as a byte-checked duplicate; or the winner's
# proactive cancel lands first and the loser sees a canceled job.
HEDGE_OUTCOMES=$(grep -Ec '"msg":"shard merged".*"hedge":true|"msg":"hedge loser cancelled"|"msg":"duplicate result discarded"|"msg":"shard job did not complete".*"state":"canceled"' "$WORK/fleet-hedge.jsonl" || true)
[ "$HEDGE_OUTCOMES" -ge 1 ] || fail "hedges dispatched but no win, cancelled loser or discarded duplicate appears in the log"
echo "fleet_chaos: E: hedges dispatched and resolved; report byte-identical"

echo "fleet_chaos: PASS (byte-identical reports across {1,2,8} workers, SIGKILL chaos, lease expiry and hedging)"
