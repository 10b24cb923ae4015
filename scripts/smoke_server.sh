#!/usr/bin/env bash
# vpserve smoke test: build the daemon, start it, hit /healthz, run one
# evaluate request, verify the repeat is a cache hit, check /metrics, and
# confirm SIGTERM drains cleanly. Used by the CI smoke job and runnable
# locally:
#
#   scripts/smoke_server.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${1:-${PORT:-18080}}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
trap 'kill -TERM "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/vpserve" ./cmd/vpserve
"$WORK/vpserve" -addr "127.0.0.1:$PORT" >"$WORK/log" 2>&1 &
PID=$!

# Wait for liveness.
up=""
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$PID" 2>/dev/null || { echo "vpserve exited early:"; cat "$WORK/log"; exit 1; }
    sleep 0.2
done
[ -n "$up" ] || { echo "vpserve never became healthy:"; cat "$WORK/log"; exit 1; }
curl -fsS "$BASE/healthz" | grep -q '"ok"' || { echo "healthz body unexpected"; exit 1; }

# One evaluate request, end to end.
BODY='{"bench":"compress","classifier":"profile","threshold":80}'
curl -fsS -X POST -d "$BODY" "$BASE/v1/evaluate" -o "$WORK/r1"
grep -q '"status":"done"' "$WORK/r1" || { echo "evaluate not done:"; cat "$WORK/r1"; exit 1; }
grep -q '"program":"compress"' "$WORK/r1" || { echo "evaluate wrong program:"; cat "$WORK/r1"; exit 1; }

# The identical repeat must be a cache hit.
curl -fsS -D "$WORK/hdrs" -X POST -d "$BODY" "$BASE/v1/evaluate" -o "$WORK/r2"
grep -qi '^X-Cache: hit' "$WORK/hdrs" || { echo "repeat was not a cache hit:"; cat "$WORK/hdrs"; exit 1; }

# Metrics reflect the work.
curl -fsS "$BASE/metrics" -o "$WORK/metrics"
grep -q '"jobs_completed":2' "$WORK/metrics" || { echo "metrics unexpected:"; cat "$WORK/metrics"; exit 1; }

# SIGTERM drains cleanly (exit 0).
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "vpserve exited non-zero on SIGTERM:"; cat "$WORK/log"; exit 1
fi
grep -q "drained cleanly" "$WORK/log" || { echo "no clean-drain message:"; cat "$WORK/log"; exit 1; }

# --- Fault-injection smoke: a second daemon armed to fail the first
# job execution. The faulted request must 5xx, the retry must succeed
# (failures are never cached), and /metrics must attribute the injection.
FPORT=$((PORT + 1))
FBASE="http://127.0.0.1:$FPORT"
"$WORK/vpserve" -addr "127.0.0.1:$FPORT" -faults 'server.record:error:n=1' \
    >"$WORK/flog" 2>&1 &
FPID=$!
trap 'kill -TERM "$FPID" 2>/dev/null || true; wait "$FPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

up=""
for _ in $(seq 1 50); do
    if curl -fsS "$FBASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$FPID" 2>/dev/null || { echo "faulted vpserve exited early:"; cat "$WORK/flog"; exit 1; }
    sleep 0.2
done
[ -n "$up" ] || { echo "faulted vpserve never became healthy:"; cat "$WORK/flog"; exit 1; }

FCODE=$(curl -sS -X POST -d "$BODY" "$FBASE/v1/evaluate" -o "$WORK/f1" -w '%{http_code}')
case "$FCODE" in
    5*) ;;
    *) echo "faulted request returned $FCODE, want 5xx:"; cat "$WORK/f1"; exit 1 ;;
esac
grep -q 'injected fault' "$WORK/f1" || { echo "failure not attributed to injection:"; cat "$WORK/f1"; exit 1; }

# The fault was one-shot and the failure was not cached: retry succeeds.
curl -fsS -X POST -d "$BODY" "$FBASE/v1/evaluate" -o "$WORK/f2"
grep -q '"status":"done"' "$WORK/f2" || { echo "retry after fault not done:"; cat "$WORK/f2"; exit 1; }

curl -fsS "$FBASE/metrics" -o "$WORK/fmetrics"
grep -q '"faults_injected":1' "$WORK/fmetrics" || { echo "fault metrics unexpected:"; cat "$WORK/fmetrics"; exit 1; }

kill -TERM "$FPID"
wait "$FPID" || { echo "faulted vpserve exited non-zero on SIGTERM:"; cat "$WORK/flog"; exit 1; }
trap 'rm -rf "$WORK"' EXIT

# --- Durability smoke: SIGKILL a stateful daemon mid-sweep, restart it on
# the same -state-dir, and the journal-recovered job must finish under its
# original id with the same result an uninterrupted run produces.
DPORT=$((PORT + 2))
DBASE="http://127.0.0.1:$DPORT"
STATE="$WORK/state"
SWEEP='{"bench":"compress","classifier":"profile","thresholds":[95,90,80,70,60,50]}'

# Reference result from a stateless daemon (fresh compute, no journal).
"$WORK/vpserve" -addr "127.0.0.1:$DPORT" >"$WORK/rlog" 2>&1 &
RPID=$!
trap 'kill -9 "$RPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
up=""
for _ in $(seq 1 50); do
    if curl -fsS "$DBASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$RPID" 2>/dev/null || { echo "reference vpserve exited early:"; cat "$WORK/rlog"; exit 1; }
    sleep 0.2
done
[ -n "$up" ] || { echo "reference vpserve never became healthy:"; cat "$WORK/rlog"; exit 1; }
curl -fsS -X POST -d "$SWEEP" "$DBASE/v1/evaluate" | jq -S .result > "$WORK/reference.json"
kill -TERM "$RPID"; wait "$RPID" 2>/dev/null || true

# Stateful daemon: accept journaled before ack, one-threshold checkpoints.
"$WORK/vpserve" -addr "127.0.0.1:$DPORT" -state-dir "$STATE" -sweep-checkpoint 1 \
    >"$WORK/dlog" 2>&1 &
DPID=$!
trap 'kill -9 "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
up=""
for _ in $(seq 1 50); do
    if curl -fsS "$DBASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$DPID" 2>/dev/null || { echo "durable vpserve exited early:"; cat "$WORK/dlog"; exit 1; }
    sleep 0.2
done
[ -n "$up" ] || { echo "durable vpserve never became healthy:"; cat "$WORK/dlog"; exit 1; }

# Async submit, then SIGKILL immediately: the accept is already on disk.
JID=$(curl -fsS -X POST -d "$SWEEP" "$DBASE/v1/jobs" | jq -r .id)
[ -n "$JID" ] && [ "$JID" != null ] || { echo "async submit returned no job id"; exit 1; }
kill -9 "$DPID"; wait "$DPID" 2>/dev/null || true

# Restart on the same state dir: the job must come back under the same id.
"$WORK/vpserve" -addr "127.0.0.1:$DPORT" -state-dir "$STATE" -sweep-checkpoint 1 \
    >"$WORK/dlog2" 2>&1 &
DPID=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS "$DBASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$DPID" 2>/dev/null || { echo "restarted vpserve exited early:"; cat "$WORK/dlog2"; exit 1; }
    sleep 0.2
done
[ -n "$up" ] || { echo "restarted vpserve never became healthy:"; cat "$WORK/dlog2"; exit 1; }

status=""
for _ in $(seq 1 150); do
    status=$(curl -fsS "$DBASE/v1/jobs/$JID" | jq -r .status)
    case "$status" in done|failed) break ;; esac
    sleep 0.2
done
[ "$status" = done ] || {
    echo "recovered job $JID ended '$status':"
    curl -fsS "$DBASE/v1/jobs/$JID"; cat "$WORK/dlog2"; exit 1
}

curl -fsS "$DBASE/v1/jobs/$JID" | jq -S .result > "$WORK/recovered.json"
diff "$WORK/reference.json" "$WORK/recovered.json" \
    || { echo "recovered result differs from uninterrupted run"; exit 1; }

curl -fsS "$DBASE/metrics" -o "$WORK/dmetrics"
[ "$(jq -r .durable.recovered_jobs "$WORK/dmetrics")" -ge 1 ] \
    || { echo "no recovered_jobs in metrics:"; cat "$WORK/dmetrics"; exit 1; }

kill -TERM "$DPID"
wait "$DPID" || { echo "durable vpserve exited non-zero on SIGTERM:"; cat "$WORK/dlog2"; exit 1; }
trap 'rm -rf "$WORK"' EXIT

echo "vpserve smoke OK (incl. fault injection + kill-restart-resume)"
