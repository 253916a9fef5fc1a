#!/usr/bin/env bash
# Fleet end-to-end check: 3 psdserve replicas behind psdproxy, serving the
# golden v3 (zero-copy mmap) release. First, three manifest rollouts go
# through the proxy, pinned by the fingerprint `psdtool convert` prints:
# the right pin updates every replica and answers bit-identically to the
# -release copy, a pin with one flipped hex digit fails and leaves every
# replica on the previous manifest, and a legacy "crc64" manifest gets a
# 400. Then a query loop runs through the proxy while one replica is
# SIGKILLed mid-loop; the contract is ZERO failed queries, bit-identical
# answers throughout (a release's noise is fixed at publish time, so
# failover must never change an answer), and the proxy's /metrics
# reporting the killed backend down once the health checker converges.
#
# Usage: scripts/fleet_e2e.sh   (from the repo root; needs curl + jq)
set -euo pipefail

cd "$(dirname "$0")/.."

P1=8181 P2=8182 P3=8183 PP=8190
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

echo "== building psdserve + psdproxy + psdtool"
go build -o /tmp/psdserve ./cmd/psdserve
go build -o /tmp/psdproxy ./cmd/psdproxy
go build -o /tmp/psdtool ./cmd/psdtool

echo "== starting 3 replicas over the golden v3 release"
for port in $P1 $P2 $P3; do
  /tmp/psdserve -addr "127.0.0.1:$port" \
    -release quadv3=testdata/release_quadtree.v3.bin \
    -release privv3=testdata/release_privtree.v3.bin &
  PIDS+=($!)
done

echo "== starting psdproxy (fast health: 250ms probes, down after 3)"
/tmp/psdproxy -addr "127.0.0.1:$PP" \
  -backend "http://127.0.0.1:$P1" \
  -backend "http://127.0.0.1:$P2" \
  -backend "http://127.0.0.1:$P3" \
  -probe-interval 250ms -probe-timeout 1s -down-after 3 -up-after 2 &
PROXY_PID=$!
PIDS+=($PROXY_PID)

up() { curl -fs -o /dev/null "$1"; }
for i in $(seq 1 100); do
  up "http://127.0.0.1:$PP/readyz" && break
  sleep 0.1
done
up "http://127.0.0.1:$PP/readyz" || { echo "proxy never became ready"; exit 1; }
curl -fs "http://127.0.0.1:$PP/stats" | jq -e '.backends | length == 3' >/dev/null

echo "== manifest rollouts pinned by the artifact fingerprint"
PRIV="$PWD/testdata/release_privtree.v3.bin"
# A v3 -> v3 conversion is byte-identical, so the printed fingerprint is
# the committed artifact's.
FP=$(/tmp/psdtool convert -in "$PRIV" -out /tmp/fleet_priv.bin \
  | sed -n 's/.* fingerprint \([0-9a-f]\{16\}\)$/\1/p')
test "${#FP}" -eq 16
cmp "$PRIV" /tmp/fleet_priv.bin
rollout() { # rollout <request.json>: POST it, print the status code
  curl -s -o /tmp/fleet_rollout.json -w '%{http_code}' -X POST \
    --data @"$1" "http://127.0.0.1:$PP/v1/rollout"
}
manifest() { # manifest <version> <pin key> <pin value>
  jq -n --arg v "$1" --arg k "$2" --arg fp "$3" --arg p "$PRIV" \
    '{canary: "ok", manifest: {version: $v, releases: [{name: "privm", path: $p, ($k): $fp}]}}'
}
on_m1() { # every replica still reports manifest m1
  for port in $P1 $P2 $P3; do
    curl -fs "http://127.0.0.1:$port/v1/manifest" | jq -e '.manifest.version == "m1"' >/dev/null
  done
}
manifest m1 fingerprint "$FP" > /tmp/fleet_m1.json
test "$(rollout /tmp/fleet_m1.json)" = 200
jq -e '.ok and .updated == 3 and all(.backends[]; .status == "updated")' /tmp/fleet_rollout.json >/dev/null
on_m1
for rect in $(jq -r '.queries[].rect | join(",")' testdata/golden_queries.json); do
  got=$(curl -fs "http://127.0.0.1:$PP/v1/releases/privm/count?rect=$rect" | jq -r '.count')
  want=$(curl -fs "http://127.0.0.1:$P2/v1/releases/privv3/count?rect=$rect" | jq -r '.count')
  test "$got" = "$want" || { echo "privm $rect: proxy $got, direct -release $want"; exit 1; }
done
case "${FP:0:1}" in 0) flip=1 ;; *) flip=0 ;; esac
manifest m2 fingerprint "$flip${FP:1}" > /tmp/fleet_m2.json
test "$(rollout /tmp/fleet_m2.json)" = 502
jq -e '.ok == false and (.error | test("fingerprint mismatch"))' /tmp/fleet_rollout.json >/dev/null
on_m1
manifest m3 crc64 "$FP" > /tmp/fleet_m3.json
test "$(rollout /tmp/fleet_m3.json)" = 400
grep -q fingerprint /tmp/fleet_rollout.json
on_m1

echo "== recording pre-kill baseline answers through the proxy"
mapfile -t RECTS < <(jq -r '.queries[].rect | join(",")' testdata/golden_queries.json)
BASE=()
for rect in "${RECTS[@]}"; do
  BASE+=("$(curl -fs "http://127.0.0.1:$PP/v1/releases/quadv3/count?rect=$rect" | jq -r '.count')")
done
# Sanity: the first baseline answer matches the golden recording.
want=$(jq -r '.queries[0].count' testdata/golden_queries.json)
awk -v a="${BASE[0]}" -v b="$want" \
  'BEGIN { d = a-b; if (d < 0) d = -d; exit !(d <= 1e-6 * (1 + (b < 0 ? -b : b))) }'

echo "== query loop with a SIGKILL mid-loop"
FAILED=0
TOTAL=0
for round in $(seq 1 40); do
  if [ "$round" -eq 10 ]; then
    echo "   SIGKILL replica :$P1 (round $round)"
    kill -9 "${PIDS[0]}"
  fi
  for i in "${!RECTS[@]}"; do
    TOTAL=$((TOTAL + 1))
    got=$(curl -fs "http://127.0.0.1:$PP/v1/releases/quadv3/count?rect=${RECTS[$i]}" | jq -r '.count') || got="CURL_FAILED"
    if [ "$got" != "${BASE[$i]}" ]; then
      echo "   QUERY FAILED round=$round rect=${RECTS[$i]}: got '$got', want '${BASE[$i]}'"
      FAILED=$((FAILED + 1))
    fi
  done
done
echo "   $TOTAL queries, $FAILED failures"
test "$FAILED" -eq 0

echo "== waiting for the health checker to mark the killed replica down"
DOWN=""
for i in $(seq 1 40); do
  if curl -fs "http://127.0.0.1:$PP/metrics" \
      | grep -q "psdproxy_backend_state{backend=\"http://127.0.0.1:$P1\"} 0"; then
    DOWN=yes
    break
  fi
  sleep 0.25
done
test -n "$DOWN" || { echo "killed backend never reported down in /metrics"; exit 1; }
curl -fs "http://127.0.0.1:$PP/metrics" | grep -q "psdproxy_backends_routable 2"
curl -fs "http://127.0.0.1:$PP/readyz" | jq -e '.routable == 2' >/dev/null
curl -fs "http://127.0.0.1:$PP/stats" | jq -e '.failovers >= 0 and .no_replica_503 == 0' >/dev/null

echo "== batch path through the proxy (read-only POST is proxied)"
jq -c '{rects: [.queries[].rect]}' testdata/golden_queries.json > /tmp/fleetbatch.json
curl -fs -X POST --data @/tmp/fleetbatch.json \
  "http://127.0.0.1:$PP/v1/releases/quadv3/batch" | jq -e ".counts | length == ${#RECTS[@]}" >/dev/null

echo "== direct mutation through the proxy is refused (405)"
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://127.0.0.1:$PP/v1/releases/quadv3")
test "$code" = 405

echo "== graceful proxy drain"
kill -TERM "$PROXY_PID"
sleep 0.3
test "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PP/readyz")" = 503 || true
wait "$PROXY_PID"

echo "fleet e2e: OK ($TOTAL queries, zero failures, kill absorbed)"
