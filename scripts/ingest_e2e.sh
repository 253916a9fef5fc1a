#!/usr/bin/env bash
# Ingest end-to-end kill-recovery check: a real psdingest binary is SIGKILLed
# over and over — mid-append, with a point flood in flight, and mid-publish,
# right after a publish is triggered — and restarted against the same state
# directory. The contract, checked after every kill:
#
#   * zero lost acknowledged points: every batch that got a 200 is present
#     after recovery (the 200 IS the durability ack);
#   * the WAL recovers clean (torn tails truncated, never sticky-broken);
#   * the privacy ledger is monotone: ε spent never decreases across a crash;
#   * the publish pipeline is never wedged by a kill (only live I/O faults
#     wedge; a restart always recovers).
#
# After the loop the daemon is SIGTERMed with a publish in flight and must
# drain cleanly: exit status 0 and "bye" logged, never a crash on the way
# out. Then `psdingest verify` rebuilds every published version from
# the WAL and bit-compares journal CRC vs fresh rebuild vs on-disk artifact —
# the byte-identical-recovery guarantee, audited end to end. Finally psdserve
# watches the publish directory and must serve the versioned artifacts:
# bare-name → latest, ?version= time travel, exact name@vN addressing.
#
# Usage: scripts/ingest_e2e.sh   (from the repo root; needs curl + jq)
set -euo pipefail

cd "$(dirname "$0")/.."

PORT=9191 SPORT=9192
WORK=$(mktemp -d)
STATE=$WORK/state PUBLISH=$WORK/publish
ACKS=$WORK/acks
: > "$ACKS"
BF=(-name taxi -state "$STATE" -publish "$PUBLISH" -domain 0,0,100,100
    -kind quadtree -height 5 -seed 42 -budget 1000 -epoch-eps 1)

DPID="" FLOOD_PID="" SERVE_PID=""
cleanup() {
  for pid in "$DPID" "$FLOOD_PID" "$SERVE_PID"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building psdingest + psdserve"
go build -o /tmp/psdingest ./cmd/psdingest
go build -o /tmp/psdserve ./cmd/psdserve

start_daemon() {
  /tmp/psdingest -addr "127.0.0.1:$PORT" -rebuild-count 500 "${BF[@]}" \
    2>>"$WORK/daemon.log" &
  DPID=$!
  for i in $(seq 1 100); do
    curl -fs -o /dev/null "http://127.0.0.1:$PORT/readyz" && return 0
    sleep 0.1
  done
  echo "daemon never became ready"; tail "$WORK/daemon.log"; exit 1
}

# flood streams 200-point batches; every 200 response appends its acked
# count to $ACKS. A batch whose response never arrives is deliberately NOT
# recorded: the client contract is exactly "no 200, no durability claim".
flood() {
  local salt=$1
  while :; do
    local body
    body=$(jq -cn --argjson s "$salt" \
      '{points: [range(200) | [(. % 97) + $s/1000, (. % 89) + $s/2000]]}')
    local added
    added=$(curl -fs -X POST --data "$body" \
      "http://127.0.0.1:$PORT/ingest" 2>/dev/null | jq -r '.added') || break
    [ "$added" = 200 ] && echo "$added" >> "$ACKS"
    salt=$((salt + 1))
  done
}

stats() { curl -fs "http://127.0.0.1:$PORT/stats"; }

# stop_daemon SIGTERMs the daemon and requires a clean drain: exit status 0
# and "bye" as its last log line. A crash on the way out (a panic exits 2)
# fails the run.
stop_daemon() {
  local status=0
  kill -TERM "$DPID"
  wait "$DPID" || status=$?
  DPID=""
  if [ "$status" -ne 0 ] || ! tail -n 1 "$WORK/daemon.log" | grep -q 'bye$'; then
    echo "   psdingest exited $status on SIGTERM"; tail "$WORK/daemon.log"; exit 1
  fi
}

LAST_SPENT=0
ROUNDS=6
for round in $(seq 1 $ROUNDS); do
  echo "== round $round/$ROUNDS: start, verify recovery, flood, SIGKILL"
  start_daemon
  ST=$(stats)

  # Zero lost acknowledged points: everything acked before the last kill
  # must have been replayed from the WAL.
  ACKED=$(awk '{s += $1} END {print s + 0}' "$ACKS")
  POINTS=$(jq -r '.points' <<<"$ST")
  if [ "$POINTS" -lt "$ACKED" ]; then
    echo "   LOST POINTS: acked $ACKED, recovered $POINTS"; exit 1
  fi
  # The WAL must recover clean, the pipeline un-wedged, after every kill.
  jq -e '.wal_broken == false and ((.wedged // "") == "")' <<<"$ST" >/dev/null

  # Monotone ledger: a crash never un-spends ε.
  SPENT=$(jq -r '.spent' <<<"$ST")
  awk -v a="$SPENT" -v b="$LAST_SPENT" 'BEGIN { exit !(a >= b) }' || {
    echo "   LEDGER WENT BACKWARD: spent $SPENT after $LAST_SPENT"; exit 1
  }
  LAST_SPENT=$SPENT
  echo "   recovered: $POINTS points (>= $ACKED acked), v$(jq -r '.latest_version' <<<"$ST"), ε spent $SPENT"

  flood "$round" &
  FLOOD_PID=$!
  # Let the flood land some batches (and cross -rebuild-count publish
  # cadences); odd rounds also fire a manual publish and kill within
  # milliseconds to land inside the 5-step publish cycle.
  sleep 0.7
  if [ $((round % 2)) -eq 1 ]; then
    curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/publish" &
    sleep 0.02
  fi
  kill -9 "$DPID" 2>/dev/null || true
  wait "$DPID" 2>/dev/null || true
  DPID=""
  kill "$FLOOD_PID" 2>/dev/null || true
  wait "$FLOOD_PID" 2>/dev/null || true
  FLOOD_PID=""
done

echo "== SIGTERM with a publish in flight: exit 0 and bye"
start_daemon
# 2000 new points cross -rebuild-count, so a cadence publish starts as the
# ingest is acknowledged; the TERM lands while it builds, racing a manual
# publish fired just before.
BODY=$(jq -cn '{points: [range(2000) | [(. % 97) + 0.5, (. % 89) + 0.5]]}')
curl -fs -o /dev/null -X POST --data "$BODY" "http://127.0.0.1:$PORT/ingest"
curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/publish" &
PUB_PID=$!
stop_daemon
wait "$PUB_PID" || true

echo "== final restart + publish everything pending"
start_daemon
curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/publish" || true
ST=$(stats)
VERSIONS=$(jq -r '.latest_version' <<<"$ST")
RECOVERED=$(jq -r '.recovered' <<<"$ST")
POINTS=$(jq -r '.points' <<<"$ST")
echo "   $POINTS points, $VERSIONS versions, $RECOVERED publication(s) rolled forward by recovery"
test "$VERSIONS" -ge 1
stop_daemon

echo "== audit: rebuild every version from the WAL, bit-compare all CRCs"
/tmp/psdingest verify "${BF[@]}" | tee "$WORK/verify.out"
grep -q "all byte-identical" "$WORK/verify.out"
# Guard against the CRC residue footgun: a fingerprint taken with the same
# polynomial as the artifact's embedded footer CRC is one constant for every
# valid artifact. Distinct versions must carry distinct fingerprints.
DISTINCT=$(awk -F'journal=' '/^v/ {split($2, a, " "); print a[1]}' "$WORK/verify.out" | sort -u | wc -l)
test "$VERSIONS" -le 1 || test "$DISTINCT" -gt 1 || {
  echo "   DEGENERATE FINGERPRINT: $VERSIONS versions share one CRC"; exit 1
}

echo "== serving the publish directory: versioned resolution + time travel"
/tmp/psdserve -addr "127.0.0.1:$SPORT" -dir "$PUBLISH" 2>>"$WORK/serve.log" &
SERVE_PID=$!
for i in $(seq 1 100); do
  curl -fs -o /dev/null "http://127.0.0.1:$SPORT/healthz" && break
  sleep 0.1
done
RECT="0,0,100,100"
# Bare name resolves to the latest version...
LATEST=$(curl -fs "http://127.0.0.1:$SPORT/v1/releases/taxi/count?rect=$RECT")
jq -e --arg v "taxi@v$VERSIONS" '.release == $v' <<<"$LATEST" >/dev/null
# ...time travel and exact addressing answer bit-identically to each other.
V1TT=$(curl -fs "http://127.0.0.1:$SPORT/v1/releases/taxi/count?rect=$RECT&version=v1" | jq -r '.count')
V1EX=$(curl -fs "http://127.0.0.1:$SPORT/v1/releases/taxi@v1/count?rect=$RECT" | jq -r '.count')
test "$V1TT" = "$V1EX"
curl -fs "http://127.0.0.1:$SPORT/v1/releases/taxi/versions" \
  | jq -e --argjson n "$VERSIONS" '.versions | length == $n' >/dev/null
kill -TERM "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=""

echo "ingest e2e: OK ($ROUNDS kills absorbed, $POINTS points, $VERSIONS versions all byte-identical)"
