#!/usr/bin/env bash
# End-to-end smoke test of the muzhad daemon, run by CI under -race:
#
#   1. submit a 4-hop chain run and wait for completion
#   2. submit the identical config again — must be a cache hit with
#      byte-identical result bytes
#   3. stream a fresh job over SSE — must end with a "done" event
#      (after a config with an invalid DRAI policy is refused: 400 and
#      no job)
#   4. muzhasim -exp single -remote and -scenario -remote must match the
#      in-process runs byte-for-byte
#   5. SIGKILL the daemon mid-job, restart it, and watch the journal
#      re-queue and finish the interrupted job
#   6. SIGTERM must drain and exit 0
#
# Usage: scripts/muzhad_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:7377
BASE="http://$ADDR"
WORK=$(mktemp -d)
DATA="$WORK/data"
BIN="$WORK/bin"
mkdir -p "$DATA" "$BIN"
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ]; then kill -9 "$DAEMON_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "--- $*"; }

config() { # config <duration_ns> <seed>
  cat <<EOF
{"config": {
  "topology": {"name": "chain-4hop",
    "positions": [{"X":0,"Y":0},{"X":250,"Y":0},{"X":500,"Y":0},{"X":750,"Y":0},{"X":1000,"Y":0}],
    "flow_endpoints": [[0,4]]},
  "flows": [{"Src":0,"Dst":4,"Variant":"newreno"}],
  "duration_ns": $1, "seed": $2,
  "mss": 1460, "window": 32, "queue_limit": 50
}}
EOF
}

field() { # field <json> <name>  -> first string value of "name"
  sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p" <<<"$1" | head -n1
}

start_daemon() {
  "$BIN/muzhad" -addr "$ADDR" -data "$DATA" -drain-grace 5s >>"$WORK/muzhad.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    if curl -fs "$BASE/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "daemon did not come up"
  cat "$WORK/muzhad.log"
  exit 1
}

wait_state() { # wait_state <id> <state> <tries>  (0.2 s per try)
  for _ in $(seq 1 "$3"); do
    local j
    j=$(curl -fs "$BASE/v1/jobs/$1" || true)
    if grep -q "\"state\":\"$2\"" <<<"$j"; then return 0; fi
    if [ "$2" != failed ] && grep -q '"state":"failed"' <<<"$j"; then
      echo "job $1 failed: $j"
      return 1
    fi
    sleep 0.2
  done
  return 1
}

log "build (race)"
go build -race -o "$BIN/muzhad" ./cmd/muzhad
go build -race -o "$BIN/muzhasim" ./cmd/muzhasim

log "start daemon"
start_daemon

log "submit 4-hop chain run"
RESP=$(config 5000000000 1 | curl -fs "$BASE/v1/jobs" -d @-)
ID=$(field "$RESP" id)
[ -n "$ID" ] || { echo "no job id in: $RESP"; exit 1; }
wait_state "$ID" done 300 || { echo "job $ID never finished:"; curl -fs "$BASE/v1/jobs/$ID"; exit 1; }
curl -fs "$BASE/v1/jobs/$ID/result" -o "$WORK/r1.json"

log "duplicate submission must hit the cache with identical bytes"
RESP2=$(config 5000000000 1 | curl -fs "$BASE/v1/jobs" -d @-)
grep -q '"cached":true' <<<"$RESP2" || { echo "no cache hit: $RESP2"; exit 1; }
ID2=$(field "$RESP2" id)
curl -fs "$BASE/v1/jobs/$ID2/result" -o "$WORK/r2.json"
cmp "$WORK/r1.json" "$WORK/r2.json"
curl -fs "$BASE/v1/stats" | grep -q '"cache_hits":1'

log "an invalid DRAI policy is refused at admission"
jobs_count() { curl -fs "$BASE/v1/stats" | sed -n 's/.*"jobs":\([0-9]*\).*/\1/p'; }
JOBS_BEFORE=$(jobs_count)
CODE=$(config 5000000000 3 |
  sed 's/"mss": 1460/"router_assist": true, "drai": {"Thresholds": [0.5, 0.2], "Levels": [5, 3, 1], "MarkLevel": 1}, "mss": 1460/' |
  curl -s -o "$WORK/bad.txt" -w '%{http_code}' "$BASE/v1/jobs" -d @-)
[ "$CODE" = 400 ] || { echo "invalid DRAI policy: HTTP $CODE, want 400: $(cat "$WORK/bad.txt")"; exit 1; }
grep -q "thresholds must be ascending" "$WORK/bad.txt" || { echo "400 for another reason: $(cat "$WORK/bad.txt")"; exit 1; }
JOBS_AFTER=$(jobs_count)
[ -n "$JOBS_BEFORE" ] && [ "$JOBS_AFTER" = "$JOBS_BEFORE" ] || { echo "jobs $JOBS_BEFORE -> $JOBS_AFTER after a refused submission"; exit 1; }

log "stream a fresh job over SSE"
RESP3=$(config 5000000000 2 | curl -fs "$BASE/v1/jobs" -d @-)
ID3=$(field "$RESP3" id)
curl -fsN --max-time 120 "$BASE/v1/jobs/$ID3/stream" -o "$WORK/stream.txt"
grep -q '^event: progress' "$WORK/stream.txt"
grep -q '^event: done' "$WORK/stream.txt"

log "muzhasim -remote matches the in-process run byte-for-byte"
"$BIN/muzhasim" -exp single -hops 2 -variants newreno -duration 2s -out "$WORK/local.json" >"$WORK/local.csv"
"$BIN/muzhasim" -exp single -hops 2 -variants newreno -duration 2s -out "$WORK/remote.json" -remote "$ADDR" >"$WORK/remote.csv"
cmp "$WORK/local.csv" "$WORK/remote.csv"
cmp "$WORK/local.json" "$WORK/remote.json"

log "muzhasim -scenario -remote matches the in-process run byte-for-byte"
SPEC=examples/scenarios/relay-crash.json
"$BIN/muzhasim" -scenario "$SPEC" -out "$WORK/spec-local.json" >"$WORK/spec-local.txt"
"$BIN/muzhasim" -scenario "$SPEC" -out "$WORK/spec-remote.json" -remote "$ADDR" >"$WORK/spec-remote.txt"
cmp "$WORK/spec-local.txt" "$WORK/spec-remote.txt"
cmp "$WORK/spec-local.json" "$WORK/spec-remote.json"

log "SIGKILL mid-job, restart, journal must resume the interrupted job"
RESP4=$(config 600000000000 9 | curl -fs "$BASE/v1/jobs" -d @-) # 600 simulated seconds: wide mid-run window
ID4=$(field "$RESP4" id)
wait_state "$ID4" running 150 || { echo "long job never started"; exit 1; }
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
start_daemon
curl -fs "$BASE/v1/stats" | grep -q '"requeued":1'
wait_state "$ID4" done 1500 || { echo "recovered job never finished:"; curl -fs "$BASE/v1/jobs/$ID4"; exit 1; }

log "graceful shutdown"
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
if [ "$RC" -ne 0 ]; then
  echo "daemon exited $RC"
  cat "$WORK/muzhad.log"
  exit 1
fi
DAEMON_PID=""

log "ok"
