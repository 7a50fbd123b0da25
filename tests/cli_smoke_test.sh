#!/bin/sh
# End-to-end smoke test for cepshed_cli: generate -> explain -> run,
# exercising the full CSV -> parse -> compile -> engine -> shedding path,
# plus the observability exports (validated when a validate_obs binary is
# passed as the second argument) and the checkpoint/restore path including
# crash injection (ckpt_tool binary as the third argument).
set -e
CLI="$1"
VALIDATOR="$2"
CKPT_TOOL="$3"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"$CLI" generate --workload bike --out "$WORKDIR/bike.csv" --duration-hours 1 \
    --seed 7 | grep -q "wrote"

QUERY='PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 5 min RETURN w(loc = a.loc, user = a.uid)'

"$CLI" explain --schema bike --query "$QUERY" --dot "$WORKDIR/nfa.dot" \
    | grep -q "NFA"
grep -q "digraph" "$WORKDIR/nfa.dot"

"$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    --matches "$WORKDIR/matches.csv" --stats | grep -q "matches over"
test -s "$WORKDIR/matches.csv"

# Shedding path: SBLS with a hard run cap, exporting every observability
# artifact (metrics in both formats, Chrome trace, shed-decision audit).
"$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    --shedder sbls --max-runs 5 --hash req:loc --stats \
    --metrics-out "$WORKDIR/metrics.prom" --trace-out "$WORKDIR/trace.json" \
    --audit-out "$WORKDIR/audit.jsonl" \
    | grep -q "shed"
"$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    --shedder sbls --max-runs 5 --hash req:loc \
    --metrics-out "$WORKDIR/metrics.json" > /dev/null
test -s "$WORKDIR/metrics.prom"
test -s "$WORKDIR/metrics.json"
test -s "$WORKDIR/trace.json"
test -s "$WORKDIR/audit.jsonl"
grep -q "cep_runs_shed_total" "$WORKDIR/metrics.prom"
grep -q "traceEvents" "$WORKDIR/trace.json"
grep -q '"run_id"' "$WORKDIR/audit.jsonl"
if [ -n "$VALIDATOR" ]; then
  "$VALIDATOR" metrics-prom "$WORKDIR/metrics.prom"
  "$VALIDATOR" metrics-json "$WORKDIR/metrics.json"
  "$VALIDATOR" trace "$WORKDIR/trace.json"
  "$VALIDATOR" audit "$WORKDIR/audit.jsonl"
fi

# Periodic metric snapshots go to stderr, at least one for this input size.
"$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    --stats-interval-events 100 2> "$WORKDIR/snapshots.txt" > /dev/null
grep -q "stats\[" "$WORKDIR/snapshots.txt"

# A single query is evaluated serially: --threads above 1 needs --queries.
if "$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    --threads 2 > /dev/null 2> "$WORKDIR/threads_err.txt"; then
  echo "expected --threads 2 without --queries to fail" >&2
  exit 1
fi
grep -q "InvalidArgument" "$WORKDIR/threads_err.txt"
grep -q -- "--queries" "$WORKDIR/threads_err.txt"

# Checkpoint/restore path: a checkpointed run and a crash-interrupted-then-
# resumed run over the same input must produce byte-identical outputs, and
# snapshot corruption must be detected, skipped, or rejected as appropriate.
"$CLI" generate --workload bike --out "$WORKDIR/crash.csv" \
    --duration-hours 48 --seed 11 > /dev/null
CKPT_FLAGS="--schema bike --input $WORKDIR/crash.csv --shedder sbls \
    --max-runs 5 --hash req:loc"

# Baseline: uninterrupted run, checkpointing every 100 events.
"$CLI" run $CKPT_FLAGS --query "$QUERY" \
    --checkpoint-dir "$WORKDIR/ckpts_base" --checkpoint-interval-events 100 \
    --checkpoint-sync --checkpoint-keep 4 \
    --matches "$WORKDIR/matches_base.csv" \
    --metrics-out "$WORKDIR/metrics_base.json" > /dev/null
test "$(ls "$WORKDIR/ckpts_base" | grep -c '\.cep$')" -ge 1

if [ -n "$CKPT_TOOL" ]; then
  "$CKPT_TOOL" verify "$WORKDIR/ckpts_base" | grep -q "valid"
  FIRST_SNAP="$(ls "$WORKDIR"/ckpts_base/*.cep | head -n 1)"
  "$CKPT_TOOL" inspect "$FIRST_SNAP" | grep -q "stream offset"
  "$CKPT_TOOL" diff "$FIRST_SNAP" "$FIRST_SNAP" > /dev/null
fi

# Crash injection: SIGKILL the CLI once at least two snapshots exist. The
# kill can land mid-write; recovery must never see a torn file as valid.
"$CLI" run $CKPT_FLAGS --query "$QUERY" \
    --checkpoint-dir "$WORKDIR/ckpts_crash" --checkpoint-interval-events 100 \
    --checkpoint-sync > /dev/null 2>&1 &
CLI_PID=$!
TRIES=0
while [ "$(ls "$WORKDIR/ckpts_crash" 2>/dev/null | grep -c '\.cep$')" -lt 2 ]
do
  kill -0 "$CLI_PID" 2>/dev/null || break
  TRIES=$((TRIES + 1))
  [ "$TRIES" -gt 600 ] && break
  sleep 0.05
done
kill -9 "$CLI_PID" 2>/dev/null || true
wait "$CLI_PID" 2>/dev/null || true
test "$(ls "$WORKDIR/ckpts_crash" | grep -c '\.cep$')" -ge 1

# A torn temp file (as a crash mid-write would leave) must be ignored by
# recovery even though its name sorts newest.
printf 'torn partial snapshot bytes' \
    > "$WORKDIR/ckpts_crash/ckpt-18446744073709551615.cep.tmp"

# A complete-looking but corrupted newest snapshot must fail its CRC and
# recovery must fall back to the previous good one.
NEWEST="$(ls "$WORKDIR"/ckpts_crash/*.cep | tail -n 1)"
cp "$NEWEST" "$WORKDIR/ckpts_crash/ckpt-18446744073709551614.cep"
SIZE="$(wc -c < "$NEWEST")"
printf '\377' | dd of="$WORKDIR/ckpts_crash/ckpt-18446744073709551614.cep" \
    bs=1 seek=$((SIZE / 2)) conv=notrunc 2> /dev/null

if [ -n "$CKPT_TOOL" ]; then
  if "$CKPT_TOOL" verify "$WORKDIR/ckpts_crash/ckpt-18446744073709551614.cep" \
      > /dev/null 2>&1; then
    echo "expected ckpt_tool verify to fail on the corrupted snapshot" >&2
    exit 1
  fi
fi

# Restoring directly from the corrupted file is a typed DataLoss error.
if "$CLI" run $CKPT_FLAGS --query "$QUERY" \
    --restore-from "$WORKDIR/ckpts_crash/ckpt-18446744073709551614.cep" \
    > /dev/null 2> "$WORKDIR/restore_err.txt"; then
  echo "expected restore from corrupted snapshot to fail" >&2
  exit 1
fi
grep -q "DataLoss" "$WORKDIR/restore_err.txt"

# Resume from the directory: picks the newest snapshot that verifies, skips
# the torn temp and the corrupted file, and finishes with outputs
# byte-identical to the uninterrupted run.
"$CLI" run $CKPT_FLAGS --query "$QUERY" \
    --restore-from "$WORKDIR/ckpts_crash" \
    --matches "$WORKDIR/matches_resumed.csv" \
    --metrics-out "$WORKDIR/metrics_resumed.json" > /dev/null
cmp "$WORKDIR/matches_base.csv" "$WORKDIR/matches_resumed.csv"
cmp "$WORKDIR/metrics_base.json" "$WORKDIR/metrics_resumed.json"

# Resilience path: fault injection + degradation ladder + error budget over
# a deliberately corrupted input survives and reports stats.
printf 'garbage line that is not csv\n' >> "$WORKDIR/bike.csv"
"$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    --resilience --theta 50 --shedder sbls --hash req:loc \
    --fault-corrupt 0.05 --fault-dup 0.1 --fault-seed 3 --stats \
    | grep -q "faults:"

# Without --resilience the corrupted line is fatal.
if "$CLI" run --schema bike --query "$QUERY" --input "$WORKDIR/bike.csv" \
    2>/dev/null; then
  echo "expected csv parse failure" >&2
  exit 1
fi

# Error paths exit non-zero.
if "$CLI" run --schema bike --query "PATTERN garbage" \
    --input "$WORKDIR/bike.csv" 2>/dev/null; then
  echo "expected parse failure" >&2
  exit 1
fi

echo "cli smoke ok"
