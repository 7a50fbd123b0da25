#!/bin/sh
# End-to-end chaos test for cepshed_server (docs/SERVICE.md).
#
# Baseline: serve two tenants (one unshed engine, one with SBLS
# shedding) to completion and drain via SIGTERM. Chaos: same streams,
# but the server is SIGKILLed mid-stream, restarted (crash recovery from
# WAL + snapshots), the clients resume with --resume, and the final SIGTERM
# drain must produce byte-identical matches, metrics, and audit artifacts
# for every tenant. The harness tolerates the kill landing after a client
# already finished — resume then skips the whole stream.
#
# Usage: server_smoke_test.sh <cepshed_server> <cepshed_client>
set -e
SERVER="$1"
CLIENT="$2"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

awk 'BEGIN { for (i = 1; i <= 1200; i++) print "req," i*1000 "," i%7 "," i }' \
    > "$WORKDIR/a.csv"
awk 'BEGIN { for (i = 1; i <= 800; i++) print "req," i*2000 "," i%5 "," i }' \
    > "$WORKDIR/b.csv"
echo 'PATTERN SEQ(req a, req b) WHERE a.loc = b.loc WITHIN 1 min' \
    > "$WORKDIR/q.sase"

# Tenant A runs without a shedder, tenant B with latency-triggered SBLS.
A_OPTS='theta=0 maxruns=64'
B_OPTS='theta=50 shedder=sbls hash=req:loc slices=16 seed=11'

start_server() {
  # $1 = root, $2 = out, $3 = socket, extra args follow
  root="$1"; out="$2"; sock="$3"; shift 3
  mkdir -p "$root" "$out"
  # SIGKILL leaves a stale socket file behind; remove it so the readiness
  # poll below cannot pass before the restarted server has re-bound.
  rm -f "$sock"
  "$SERVER" --root "$root" --out-dir "$out" --socket "$sock" \
      --checkpoint-interval-events 64 "$@" 2>> "$WORKDIR/server.log" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.05
  done
  echo "server socket $sock never appeared" >&2
  exit 1
}

stop_server_graceful() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=""
}

run_client() {
  # $1 = socket, $2 = tenant, $3 = opts, $4 = input, rest = extra flags
  sock="$1"; tenant="$2"; opts="$3"; input="$4"; shift 4
  "$CLIENT" --socket "$sock" --tenant "$tenant" \
      --schema "req loc:int uid:int" \
      --query-name q1 --query "$WORKDIR/q.sase" --query-opts "$opts" \
      --input "$input" "$@"
}

# --- Baseline: uninterrupted run, graceful SIGTERM drain --------------------
start_server "$WORKDIR/base_root" "$WORKDIR/base_out" "$WORKDIR/base.sock"
run_client "$WORKDIR/base.sock" alice "$A_OPTS" "$WORKDIR/a.csv" > /dev/null
run_client "$WORKDIR/base.sock" bob "$B_OPTS" "$WORKDIR/b.csv" > /dev/null
stop_server_graceful
test -s "$WORKDIR/base_out/alice--q1.matches.csv"
test -s "$WORKDIR/base_out/bob--q1.audit.jsonl"
grep -q "cep_tenant_ingested_total" "$WORKDIR/base_out/alice.metrics.prom"
grep -q "cep_server_connections_total" "$WORKDIR/base_out/server.metrics.prom"

# --- Chaos: SIGKILL mid-stream, restart, resume, drain ----------------------
start_server "$WORKDIR/chaos_root" "$WORKDIR/chaos_out" "$WORKDIR/chaos.sock"
run_client "$WORKDIR/chaos.sock" alice "$A_OPTS" "$WORKDIR/a.csv" \
    > /dev/null 2>&1 &
A_PID=$!
run_client "$WORKDIR/chaos.sock" bob "$B_OPTS" "$WORKDIR/b.csv" \
    > /dev/null 2>&1 &
B_PID=$!
sleep 0.3
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
# Clients exit 3 (connection lost) when the kill caught them mid-stream, 0
# if they had already finished; anything else is a harness bug.
wait "$A_PID" && A_RC=0 || A_RC=$?
wait "$B_PID" && B_RC=0 || B_RC=$?
for rc in "$A_RC" "$B_RC"; do
  case "$rc" in
    0|3) ;;
    *) echo "chaos client exited $rc" >&2; exit 1 ;;
  esac
done

start_server "$WORKDIR/chaos_root" "$WORKDIR/chaos_out" "$WORKDIR/chaos.sock"
grep -q "tenants recovered" "$WORKDIR/server.log"
run_client "$WORKDIR/chaos.sock" alice "$A_OPTS" "$WORKDIR/a.csv" --resume \
    > /dev/null
run_client "$WORKDIR/chaos.sock" bob "$B_OPTS" "$WORKDIR/b.csv" --resume \
    > /dev/null
stop_server_graceful

# --- Exactly-once: every per-tenant artifact is byte-identical --------------
for f in alice--q1.matches.csv alice--q1.metrics.txt alice--q1.audit.jsonl \
         bob--q1.matches.csv bob--q1.metrics.txt bob--q1.audit.jsonl; do
  cmp "$WORKDIR/base_out/$f" "$WORKDIR/chaos_out/$f" || {
    echo "artifact $f diverged after crash recovery" >&2
    exit 1
  }
done

echo "server smoke test passed"
