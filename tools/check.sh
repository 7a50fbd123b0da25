#!/bin/sh
# Sanitized verification pass, three builds:
#   1. build-sanitize/  — ASan+UBSan, full test suite (memory/UB coverage for
#      the fault-injection and resilience paths), plus the fuzz corpus
#      replays and a differential stress sweep (docs/FUZZING.md).
#   2. build-tsan/      — ThreadSanitizer, the Parallel* suites (data-race
#      coverage for the worker pool and MultiEngine fan-out across queries).
#   3. build-release/   — -O2 -DNDEBUG, full test suite (assert-free paths),
#      a bench_micro_engine throughput smoke that fails on a >20%
#      single-thread regression vs the committed BENCH_parallel.json, and
#      the bench_suite shedding-quality smoke (schema-checked output,
#      shadow-recall accuracy gate, coarse throughput floor vs the
#      committed BENCH_suite.json).
# Each build is configured with -DCEPSHED_WERROR=ON (warnings fail the
# build). Each build also runs the CLI on an example workload with the
# observability exports enabled, once for a single query and once for a
# query set fanned out over four threads, and validates them with
# validate_obs (schema regressions, and races on the tracer and audit log
# shared across engines, surface here), then writes checkpoints and
# verifies them with ckpt_tool (snapshot CRC/format coverage under both
# sanitizers), and runs the service-mode chaos harness (SIGKILL + resume)
# with a server-vs-in-process differential sweep. The ASan and TSan passes
# additionally run the multi-query optimizer differential (stress_engine
# --multiquery: optimized vs unoptimized per-query matches must be
# byte-identical), and the ASan pass diffs opt_tool output against the
# checked-in goldens (tests/golden/opt/).
# Usage: tools/check.sh [extra ctest args for the ASan pass...]
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

# configure BUILD_DIR [cmake args...] — fail fast with a pointed message if
# the configure step itself breaks (a silent half-configured build directory
# otherwise produces confusing downstream compile errors).
configure() {
  CONFIG_DIR="$1"
  shift
  if ! cmake -B "$CONFIG_DIR" -S "$ROOT" "$@"; then
    echo "error: cmake configure failed for $CONFIG_DIR -- fix the" \
         "configuration error above before looking at build output" >&2
    exit 1
  fi
}

# obs_check BUILD_DIR — generate a workload, run it with every observability
# export enabled, and validate the output files. The second run fans a query
# set out over a 4-thread MultiEngine pool, so the shared tracer and audit
# log record concurrently under the sanitizer's eye.
obs_check() {
  OBS_DIR="$(mktemp -d)"
  Q='PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 5 min RETURN w(loc = a.loc, user = a.uid)'
  "$1/tools/cepshed_cli" generate --workload bike --out "$OBS_DIR/bike.csv" \
      --duration-hours 1 --seed 7 > /dev/null
  "$1/tools/cepshed_cli" run --schema bike --query "$Q" \
      --input "$OBS_DIR/bike.csv" --shedder sbls --max-runs 5 \
      --hash req:loc \
      --shadow-sample 1 --calibration --slo-budget 0.01 \
      --metrics-out "$OBS_DIR/metrics.prom" \
      --trace-out "$OBS_DIR/trace.json" \
      --audit-out "$OBS_DIR/audit.jsonl" \
      --quality-out "$OBS_DIR/quality.json" > /dev/null
  "$1/tools/validate_obs" metrics-prom "$OBS_DIR/metrics.prom"
  "$1/tools/validate_obs" trace "$OBS_DIR/trace.json"
  "$1/tools/validate_obs" audit "$OBS_DIR/audit.jsonl"
  "$1/tools/validate_obs" quality "$OBS_DIR/quality.json"
  cat > "$OBS_DIR/queries.txt" <<'EOF'
PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 5 min
PATTERN SEQ(req a, avail b) WHERE b.loc = a.loc WITHIN 2 min
PATTERN SEQ(avail a, unlock c) WHERE c.loc = a.loc WITHIN 5 min
PATTERN SEQ(req a, req b) WHERE b.loc = a.loc WITHIN 1 min
EOF
  "$1/tools/cepshed_cli" run --schema bike --queries "$OBS_DIR/queries.txt" \
      --input "$OBS_DIR/bike.csv" --shedder sbls --max-runs 5 \
      --hash req:loc --threads 4 \
      --metrics-out "$OBS_DIR/multi.prom" \
      --trace-out "$OBS_DIR/multi_trace.json" \
      --audit-out "$OBS_DIR/multi_audit.jsonl" > /dev/null
  "$1/tools/validate_obs" metrics-prom "$OBS_DIR/multi.prom"
  "$1/tools/validate_obs" trace "$OBS_DIR/multi_trace.json"
  "$1/tools/validate_obs" audit "$OBS_DIR/multi_audit.jsonl"
  rm -rf "$OBS_DIR"
}

# ckpt_check BUILD_DIR — run a checkpointed job, verify every snapshot with
# ckpt_tool, and restore from the newest one; the serializers, CRC paths,
# and background writer all run under the build's sanitizer.
ckpt_check() {
  CKPT_DIR="$(mktemp -d)"
  Q='PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 5 min RETURN w(loc = a.loc, user = a.uid)'
  "$1/tools/cepshed_cli" generate --workload bike --out "$CKPT_DIR/bike.csv" \
      --duration-hours 1 --seed 7 > /dev/null
  "$1/tools/cepshed_cli" run --schema bike --query "$Q" \
      --input "$CKPT_DIR/bike.csv" --shedder sbls --max-runs 5 \
      --hash req:loc \
      --checkpoint-dir "$CKPT_DIR/ckpts" \
      --checkpoint-interval-events 500 > /dev/null
  "$1/tools/ckpt_tool" verify "$CKPT_DIR/ckpts"
  for SNAP in "$CKPT_DIR"/ckpts/*.cep; do
    "$1/tools/ckpt_tool" verify "$SNAP" > /dev/null
  done
  "$1/tools/cepshed_cli" run --schema bike --query "$Q" \
      --input "$CKPT_DIR/bike.csv" --shedder sbls --max-runs 5 \
      --hash req:loc --restore-from "$CKPT_DIR/ckpts" > /dev/null
  rm -rf "$CKPT_DIR"
}

# server_check BUILD_DIR — service-mode pass: the SIGKILL chaos harness
# (crash recovery must reproduce a byte-identical drain) and a short
# differential sweep of the server transport/WAL/session path against
# in-process engines, all under the build's sanitizer.
server_check() {
  sh "$ROOT/tests/server_smoke_test.sh" \
      "$1/tools/cepshed_server" "$1/tools/cepshed_client"
  "$1/tools/stress_engine" --server --configs 10 --seed 11
}

# perf_check BUILD_DIR — throughput smoke against the committed baseline:
# re-run the bench_micro_engine parallel sweep (Release build) and fail when
# single-thread events/sec drops more than 20% below the checked-in
# BENCH_parallel.json. Catches hot-path regressions (run storage, predicate
# fast path) that no correctness test would notice.
perf_check() {
  PERF_DIR="$(mktemp -d)"
  (cd "$PERF_DIR" && "$1/bench/bench_micro_engine" --benchmark_filter=NONE \
      > /dev/null)
  ROW='s/.*"threads": 1, "batch": 1, "events_per_sec": \([0-9.]*\).*/\1/p'
  NEW="$(sed -n "$ROW" "$PERF_DIR/BENCH_parallel.json")"
  BASE="$(sed -n "$ROW" "$ROOT/BENCH_parallel.json")"
  rm -rf "$PERF_DIR"
  awk -v new="$NEW" -v base="$BASE" 'BEGIN {
    if (new == "" || base == "") {
      print "error: perf smoke could not parse events_per_sec" > "/dev/stderr"
      exit 1
    }
    if (new + 0 < 0.8 * base) {
      printf "error: perf smoke: single-thread %.1f ev/s is >20%% below the \
committed baseline %.1f ev/s (BENCH_parallel.json)\n", new, base > "/dev/stderr"
      exit 1
    }
    printf "perf smoke ok: single-thread %.1f ev/s (baseline %.1f)\n", new, base
  }'
}

# suite_check BUILD_DIR — shedding-quality trajectory smoke (Release build,
# small preset): re-run the standing bench suite, schema-check its output
# with validate_obs, and fail when single-thread throughput drops below 80%
# of the committed BENCH_suite.json baseline. The baseline is the full-scale
# run while this smoke uses CEPSHED_SCALE=0.1 (which is faster per event),
# so the floor is deliberately coarse — it catches catastrophic hot-path
# regressions; the tight 20% gate is perf_check's job. bench_suite itself
# also fails when the shadow oracle's online recall estimate drifts more
# than 5 points from the offline truth on the cluster workload.
suite_check() {
  SUITE_DIR="$(mktemp -d)"
  (cd "$SUITE_DIR" && CEPSHED_SCALE=0.1 "$1/bench/bench_suite" \
      > /dev/null 2>&1)
  "$1/tools/validate_obs" bench-suite "$SUITE_DIR/BENCH_suite.json"
  ROW='s/.*"single_thread_eps": \([0-9.]*\).*/\1/p'
  NEW="$(sed -n "$ROW" "$SUITE_DIR/BENCH_suite.json")"
  BASE="$(sed -n "$ROW" "$ROOT/BENCH_suite.json")"
  rm -rf "$SUITE_DIR"
  awk -v new="$NEW" -v base="$BASE" 'BEGIN {
    if (new == "" || base == "") {
      print "error: suite smoke could not parse single_thread_eps" \
          > "/dev/stderr"
      exit 1
    }
    if (new + 0 < 0.8 * base) {
      printf "error: suite smoke: single-thread %.1f ev/s is >20%% below the \
committed baseline %.1f ev/s (BENCH_suite.json)\n", new, base > "/dev/stderr"
      exit 1
    }
    printf "suite smoke ok: single-thread %.1f ev/s (baseline %.1f)\n", \
        new, base
  }'
}

# opt_check BUILD_DIR — multi-query optimizer golden check: run opt_tool on
# the example query set and diff both the text IR dump and the Graphviz
# rendering against the checked-in goldens. Any change to pass ordering,
# interning, merge grouping, or the IR printer shows up as a diff here and
# forces a conscious golden update.
opt_check() {
  OPT_DIR="$(mktemp -d)"
  "$1/tools/opt_tool" --schema bike \
      --queries "$ROOT/tests/golden/opt/example_queries.txt" \
      --dot "$OPT_DIR/example.dot" > "$OPT_DIR/example_dump.txt"
  diff -u "$ROOT/tests/golden/opt/example_dump.txt" "$OPT_DIR/example_dump.txt"
  diff -u "$ROOT/tests/golden/opt/example.dot" "$OPT_DIR/example.dot"
  rm -rf "$OPT_DIR"
}

# multiquery_check BUILD_DIR CONFIGS — differential multi-query sweep: for
# each random config the optimized MultiEngine (CSE + merge + pushdown) must
# produce byte-identical per-query match fingerprints vs the unoptimized
# one, across fan-out thread counts, batch feeding, and checkpoint-resume.
multiquery_check() {
  "$1/tools/stress_engine" --multiquery --configs "$2" --seed 9
}

# fuzz_check BUILD_DIR — differential stress sweep plus, when the toolchain
# supports -fsanitize=fuzzer (clang), a short coverage-guided run of each
# fuzz target over its checked-in corpus. The corpus-replay ctest entries
# already ran as part of the suite; this adds the wider seeded sweep.
fuzz_check() {
  "$1/tools/stress_engine" --configs 300 --seed 7 --shadow
  if grep -q 'CEPSHED_LIBFUZZER_SUPPORTED.*=1' "$1/CMakeCache.txt"; then
    FUZZ_DIR="$(mktemp -d)"
    for TARGET in query csv snapshot; do
      # New inputs land in the scratch dir; the checked-in seeds stay pristine.
      mkdir -p "$FUZZ_DIR/$TARGET"
      "$1/fuzz/fuzz_$TARGET" -max_total_time=60 -timeout=10 \
          "$FUZZ_DIR/$TARGET" "$ROOT/tests/corpus/$TARGET"
    done
    rm -rf "$FUZZ_DIR"
  fi
}

BUILD="$ROOT/build-sanitize"
configure "$BUILD" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCEPSHED_SANITIZE=address \
    -DCEPSHED_WERROR=ON \
    -DCEPSHED_FUZZ=ON \
    -DCEPSHED_BUILD_BENCHMARKS=OFF \
    -DCEPSHED_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j "$JOBS"
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS" "$@")
# The strategy-conformance suite (every registered shedder: determinism,
# artifact identity on a fan-out pool, checkpoint-resume byte identity, run
# conservation) runs explicitly under ASan+UBSan so that user-filtered
# ctest args above cannot skip it.
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS" \
    -R 'StrategyConformance|ShedderRegistry|ShedDecision')
obs_check "$BUILD"
ckpt_check "$BUILD"
server_check "$BUILD"
opt_check "$BUILD"
multiquery_check "$BUILD" 30
fuzz_check "$BUILD"

TSAN_BUILD="$ROOT/build-tsan"
configure "$TSAN_BUILD" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCEPSHED_SANITIZE=thread \
    -DCEPSHED_WERROR=ON \
    -DCEPSHED_BUILD_BENCHMARKS=OFF \
    -DCEPSHED_BUILD_EXAMPLES=OFF
cmake --build "$TSAN_BUILD" -j "$JOBS"
(cd "$TSAN_BUILD" && ctest --output-on-failure -j "$JOBS" \
    -R 'Parallel|StrategyConformance')
obs_check "$TSAN_BUILD"
ckpt_check "$TSAN_BUILD"
server_check "$TSAN_BUILD"
multiquery_check "$TSAN_BUILD" 10

# Release pass: the suite again under -O2 -DNDEBUG (assert-free code paths,
# optimizer-exposed UB) plus the throughput smoke against the committed
# baseline.
REL_BUILD="$ROOT/build-release"
configure "$REL_BUILD" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" \
    -DCEPSHED_WERROR=ON \
    -DCEPSHED_BUILD_BENCHMARKS=ON \
    -DCEPSHED_BUILD_EXAMPLES=OFF
cmake --build "$REL_BUILD" -j "$JOBS"
(cd "$REL_BUILD" && ctest --output-on-failure -j "$JOBS")
perf_check "$REL_BUILD"
suite_check "$REL_BUILD"

echo "sanitized check ok"
