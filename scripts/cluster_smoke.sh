#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of a 3-node chamd cluster.
#
# Brings up three chamd processes gossiping with each other, then
# checks the three cluster-level guarantees a deployment relies on:
#
#   1. membership converges to 3 nodes on every peer;
#   2. a result computed via node A is served from the cluster cache
#      when the same spec is submitted via node B (cached: true, no
#      second simulation);
#   3. a matrix job's cells join that cache: one of its cells,
#      submitted as a sim job via another node, comes back cached;
#   4. killing node C mid-queue loses no jobs — everything submitted
#      through node A still reaches state "done" on the survivors.
#
# Needs: bash, curl, go. No jq — parsing is grep-based on the API's
# stable pretty-printed JSON.
set -euo pipefail

PORT_A=18081
PORT_B=18082
PORT_C=18083
A="http://127.0.0.1:$PORT_A"
B="http://127.0.0.1:$PORT_B"
C="http://127.0.0.1:$PORT_C"
BIN="${TMPDIR:-/tmp}/chamd-smoke"
LOGDIR="$(mktemp -d)"

cleanup() {
  kill "${PID_A:-}" "${PID_B:-}" "${PID_C:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- node A log ---" >&2; tail -20 "$LOGDIR/a.log" >&2 || true
  echo "--- node B log ---" >&2; tail -20 "$LOGDIR/b.log" >&2 || true
  echo "--- node C log ---" >&2; tail -20 "$LOGDIR/c.log" >&2 || true
  exit 1
}

echo "== building chamd"
go build -o "$BIN" ./cmd/chamd

start_node() { # id port peers logname
  "$BIN" -addr "127.0.0.1:$2" -workers 2 \
    -node-id "$1" -cluster-addr "http://127.0.0.1:$2" -peers "$3" \
    -gossip-interval 100ms -suspicion-timeout 1s \
    >"$LOGDIR/$4.log" 2>&1 &
}

echo "== starting 3 nodes"
start_node node-a "$PORT_A" "" a;        PID_A=$!
start_node node-b "$PORT_B" "$A" b;      PID_B=$!
start_node node-c "$PORT_C" "$A" c;      PID_C=$!

wait_members() { # url count
  for _ in $(seq 1 100); do
    n="$(curl -sf "$1/v1/cluster/members" 2>/dev/null |
      grep -o '"id"' | wc -l)" || n=0
    [ "$n" -ge "$2" ] && return 0
    sleep 0.1
  done
  return 1
}

for url in "$A" "$B" "$C"; do
  wait_members "$url" 3 || fail "membership did not reach 3 nodes on $url"
done
echo "ok: membership converged on all 3 nodes"

spec() { # seed instructions
  printf '{"kind":"sim","policy":"chameleon-opt","workload":"bwaves","scale":1024,"instructions":%d,"warmup":1,"seed":%d}' "$2" "$1"
}

submit() { # url body -> job id
  curl -sf -X POST -H 'Content-Type: application/json' -d "$2" "$1/v1/jobs" |
    grep -o '"id": "[^"]*"' | head -1 | sed 's/.*: "//; s/"//'
}

wait_done() { # url id timeout_s
  # Each read is held by the server until the job ends (or 10s pass).
  end=$((SECONDS + $3))
  while [ "$SECONDS" -lt "$end" ]; do
    st="$(curl -sf -m 15 "$1/v1/jobs/$2?wait=10s" | grep -o '"state": "[^"]*"' | head -1)" ||
      sleep 1 # node unreachable or draining: retry, do not spin
    case "$st" in
      *done*) return 0 ;;
      *failed* | *canceled*) return 1 ;;
    esac
  done
  return 1
}

echo "== cache check: compute via A, hit via B"
SPEC="$(spec 7 5000)"
JOB_A="$(submit "$A" "$SPEC")"
[ -n "$JOB_A" ] || fail "submit via A returned no job id"
wait_done "$A" "$JOB_A" 30 || fail "job via A did not complete"

JOB_B="$(submit "$B" "$SPEC")"
[ -n "$JOB_B" ] || fail "re-submit via B returned no job id"
wait_done "$B" "$JOB_B" 30 || fail "job via B did not complete"
curl -sf "$B/v1/jobs/$JOB_B" | grep -q '"cached": true' ||
  fail "second submission via B was not served from the cluster cache"
echo "ok: B served the result cached (no second simulation)"

echo "== dse check: sweep shards across the ring, cells reused on resubmit"
# 4-cell design sweep (2 policies x 1 workload x 2 seeds). The ring
# routes each cell to its owner; a resubmission with different
# objectives has a new sweep hash but identical cell hashes, so every
# cell must come back from the cluster result cache.
dse_spec() { # objectives-json
  printf '{"kind":"dse","scale":1024,"instructions":5000,"warmup":1,"dse":{"policies":["chameleon-opt","alloy"],"workloads":["bwaves"],"seeds":[5,6],"objectives":%s}}' "$1"
}
DSE_1="$(dse_spec '[{"key":"ipc_geomean","sense":"max"},{"key":"total_energy_nj","sense":"min"}]')"
DSE_2="$(dse_spec '[{"key":"ipc_geomean","sense":"max"},{"key":"amat_cycles","sense":"min"}]')"

JOB_D1="$(submit "$A" "$DSE_1")"
[ -n "$JOB_D1" ] || fail "dse submit via A returned no job id"
wait_done "$A" "$JOB_D1" 60 || fail "dse job via A did not complete"
curl -sf "$A/v1/jobs/$JOB_D1/result" | grep -q '"total_cells":4' ||
  fail "dse job did not evaluate 4 cells"

JOB_D2="$(submit "$B" "$DSE_2")"
[ -n "$JOB_D2" ] || fail "dse re-submit via B returned no job id"
wait_done "$B" "$JOB_D2" 60 || fail "second dse job via B did not complete"
curl -sf "$B/v1/jobs/$JOB_D2/result" | grep -q '"cached":4' ||
  fail "second dse sweep did not serve all 4 cells from the cluster cache"
echo "ok: dse sweep ran; changed-objectives resubmit reused every cell"

echo "== matrix check: matrix cells join the cluster result cache"
# A 1-workload matrix job through A resolves its 8 cells like sweep
# cells; its chameleon-opt cell, submitted through B as a sim job with
# the same budgets, must come back from the cluster cache.
MATRIX='{"kind":"matrix","workloads":["bwaves"],"scale":1024,"instructions":5000,"warmup":1,"seed":9}'
JOB_M="$(submit "$A" "$MATRIX")"
[ -n "$JOB_M" ] || fail "matrix submit via A returned no job id"
wait_done "$A" "$JOB_M" 120 || fail "matrix job via A did not complete"
JOB_MC="$(submit "$B" "$(spec 9 5000)")"
[ -n "$JOB_MC" ] || fail "cell submit via B returned no job id"
wait_done "$B" "$JOB_MC" 30 || fail "cell job via B did not complete"
curl -sf "$B/v1/jobs/$JOB_MC" | grep -q '"cached": true' ||
  fail "the matrix's chameleon-opt cell was not served from the cluster cache"
echo "ok: a matrix cell came back cached as a sim job"

echo "== failover check: kill node C with jobs in flight"
JOBS=()
for seed in 101 102 103 104 105 106 107 108; do
  JOBS+=("$(submit "$A" "$(spec "$seed" 200000)")")
done
kill -9 "$PID_C"
echo "   killed node C ($PID_C); waiting for survivors to finish all ${#JOBS[@]} jobs"

for id in "${JOBS[@]}"; do
  wait_done "$A" "$id" 60 || fail "job $id was lost after node C died"
done
echo "ok: all ${#JOBS[@]} jobs completed despite the node death"

# The survivors must agree the cluster is down to 2 alive members.
for url in "$A" "$B"; do
  ok=0
  for _ in $(seq 1 50); do
    if curl -sf "$url/debug/vars" | grep -qE '"members_alive": ?2'; then
      ok=1
      break
    fi
    sleep 0.1
  done
  [ "$ok" -eq 1 ] || fail "$url did not reconverge to 2 alive members"
done
echo "ok: membership reconverged to the 2 survivors"

echo "PASS: cluster smoke"
