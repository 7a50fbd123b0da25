// Micro-benchmarks (google-benchmark) for the engine's hot paths: per-event
// evaluation as a function of |R(t)|, query compilation, the SBLS model
// bookkeeping, and victim selection — the operations whose constant-time
// behaviour the paper requires.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "engine/engine.h"
#include "event/stream.h"
#include "nfa/compiler.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "shedding/random_shedder.h"
#include "shedding/sketch.h"
#include "shedding/state_shedder.h"
#include "workload/bikeshare.h"
#include "workload/google_trace.h"
#include "workload/queries.h"

namespace cep {
namespace {

constexpr const char* kQueryText =
    "PATTERN SEQ(req a, avail+ b[], unlock c) "
    "WHERE diff(b[i].loc, a.loc) < 5, COUNT(b[]) > 2, "
    "diff(c.loc, a.loc) > 5, c.uid = a.uid "
    "WITHIN 10 min "
    "RETURN warning(loc = a.loc, user = a.uid)";

struct BikeFixture {
  BikeFixture() {
    (void)BikeShareGenerator::RegisterSchemas(&registry);
    req = registry.FindType("req");
    unlock = registry.FindType("unlock");
  }

  EventPtr MakeReq(Timestamp ts, int64_t loc, int64_t uid) {
    return std::make_shared<Event>(
        req, registry.schema(req), ts,
        std::vector<Value>{Value(loc), Value(uid)}, seq++);
  }
  EventPtr MakeUnlock(Timestamp ts, int64_t loc, int64_t uid) {
    return std::make_shared<Event>(
        unlock, registry.schema(unlock), ts,
        std::vector<Value>{Value(loc), Value(uid), Value(int64_t{1})}, seq++);
  }

  SchemaRegistry registry;
  EventTypeId req = 0;
  EventTypeId unlock = 0;
  uint64_t seq = 1;
};

NfaPtr CompileBikeQuery(const SchemaRegistry& registry, const char* text) {
  auto parsed = ParseQuery(text);
  auto analyzed = Analyze(parsed.MoveValueUnsafe(), registry);
  return CompileToNfa(analyzed.MoveValueUnsafe()).MoveValueUnsafe();
}

void BM_ParseQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = ParseQuery(kQueryText);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseQuery);

void BM_AnalyzeAndCompile(benchmark::State& state) {
  BikeFixture fixture;
  for (auto _ : state) {
    auto parsed = ParseQuery(kQueryText);
    auto analyzed = Analyze(parsed.MoveValueUnsafe(), fixture.registry);
    auto nfa = CompileToNfa(analyzed.MoveValueUnsafe());
    benchmark::DoNotOptimize(nfa);
  }
}
BENCHMARK(BM_AnalyzeAndCompile);

/// Cost of one event against |R(t)| = `state.range(0)` runs awaiting a
/// same-type event with a failing predicate (the engine's dominant loop).
void BM_ProcessEventPerRun(benchmark::State& state) {
  BikeFixture fixture;
  NfaPtr nfa = CompileBikeQuery(
      fixture.registry,
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 24 hours");
  Engine engine(nfa, EngineOptions{});
  const int64_t runs = state.range(0);
  Timestamp ts = kMinute;
  for (int64_t i = 0; i < runs; ++i) {
    (void)engine.ProcessEvent(fixture.MakeReq(++ts, 1, 1000000 + i));
  }
  for (auto _ : state) {
    // uid -1 never matches: pure predicate-evaluation cost over all runs.
    (void)engine.ProcessEvent(fixture.MakeUnlock(++ts, 1, -1));
  }
  state.SetItemsProcessed(state.iterations() * runs);
}
BENCHMARK(BM_ProcessEventPerRun)->Arg(16)->Arg(256)->Arg(4096);

void BM_RunExtendClone(benchmark::State& state) {
  BikeFixture fixture;
  const EventPtr event = fixture.MakeReq(1, 2, 3);
  Run base(1, 3, 0, 0);
  base.Bind(0, event, 1);
  uint64_t id = 2;
  for (auto _ : state) {
    auto child = base.Extend(id++, 1, event, 2);
    benchmark::DoNotOptimize(child);
  }
}
BENCHMARK(BM_RunExtendClone);

void BM_SketchAdd(benchmark::State& state) {
  CountMinSketch sketch(1 << 14, 4);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Add(key++ * 0x9e3779b97f4a7c15ULL, 1.0);
  }
}
BENCHMARK(BM_SketchAdd);

void BM_SketchEstimate(benchmark::State& state) {
  CountMinSketch sketch(1 << 14, 4);
  for (uint64_t k = 0; k < 10000; ++k) sketch.Add(k, 1.0);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(key++ % 20000));
  }
}
BENCHMARK(BM_SketchEstimate);

void BM_ExactBackendAdd(benchmark::State& state) {
  ExactCounterBackend backend;
  uint64_t key = 0;
  for (auto _ : state) {
    backend.Add(key++ % 100000, 1.0, 1.0);
  }
}
BENCHMARK(BM_ExactBackendAdd);

/// SBLS bookkeeping per transition (hash extend + cell entry), the paper's
/// "constant time" requirement.
void BM_SblsOnRunExtended(benchmark::State& state) {
  BikeFixture fixture;
  NfaPtr nfa = CompileBikeQuery(
      fixture.registry,
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 1 hour");
  StateShedderOptions options;
  options.pm_hash.attributes = {{"req", "loc"}};
  StateShedder shedder(options, &fixture.registry);
  shedder.Attach(*nfa);
  const EventPtr event = fixture.MakeReq(1, 2, 3);
  Run parent(1, 2, 0, 0);
  parent.Bind(0, event, 1);
  shedder.OnRunCreated(&parent, *event, 0);
  for (auto _ : state) {
    auto child = parent.Extend(2, 1, event, 2);
    shedder.OnRunExtended(&parent, child.get(), *event, kMinute);
    benchmark::DoNotOptimize(child);
  }
}
BENCHMARK(BM_SblsOnRunExtended);

/// Victim selection over |R(t)| = range(0) runs: O(n) selection via
/// nth_element, amortised over the shed interval.
void BM_ShedDecide(benchmark::State& state) {
  BikeFixture fixture;
  const int64_t n = state.range(0);
  std::vector<RunPtr> runs;
  const EventPtr event = fixture.MakeReq(1, 2, 3);
  for (int64_t i = 0; i < n; ++i) {
    auto run = MakeRun(static_cast<uint64_t>(i), 2, 1, i);
    run->Bind(0, event, 1);
    runs.push_back(std::move(run));
  }
  StateShedderOptions options;
  StateShedder shedder(options, nullptr);
  const ShedContext ctx{runs, n + 1, static_cast<size_t>(n / 5),
                        /*want_scores=*/false};
  for (auto _ : state) {
    ShedDecision decision = shedder.Decide(ctx);
    benchmark::DoNotOptimize(decision);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShedDecide)->Arg(1024)->Arg(16384);

void BM_GoogleTraceGeneration(benchmark::State& state) {
  SchemaRegistry registry;
  (void)GoogleTraceGenerator::RegisterSchemas(&registry);
  GoogleTraceOptions options;
  options.duration = 2 * kHour;
  options.jobs_per_hour = 200;
  for (auto _ : state) {
    GoogleTraceGenerator generator(options);
    auto events = generator.Generate(registry);
    benchmark::DoNotOptimize(events);
  }
}
BENCHMARK(BM_GoogleTraceGeneration);

}  // namespace

/// Threads × batch-size sweep over the engine's dominant loop (one event
/// against |R(t)| = 4096 predicate-failing runs), written as machine-readable
/// JSON so CI can track parallel scaling. Speedups are relative to the
/// threads=1, batch=1 row; on a single-core container they will hover
/// around (or below) 1.0 — the JSON records `hardware_threads` so readers
/// can tell scheduling noise from a real scaling regression.
void RunParallelSweepAndWriteJson(const char* path) {
  BikeFixture fixture;
  NfaPtr nfa = CompileBikeQuery(
      fixture.registry,
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 24 hours");
  constexpr int kPreloadRuns = 4096;
  constexpr int kMeasuredEvents = 2000;

  struct Row {
    size_t threads;
    size_t batch;
    double events_per_sec;
  };
  std::vector<Row> rows;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (size_t batch : {1u, 64u}) {
      EngineOptions options;
      options.parallel.threads = threads;
      Engine engine(nfa, options);
      Timestamp ts = kMinute;
      for (int i = 0; i < kPreloadRuns; ++i) {
        (void)engine.ProcessEvent(fixture.MakeReq(++ts, 1, 1000000 + i));
      }
      std::vector<EventPtr> measured;
      measured.reserve(kMeasuredEvents);
      for (int i = 0; i < kMeasuredEvents; ++i) {
        // uid -1 never matches: pure predicate-evaluation cost per run.
        measured.push_back(fixture.MakeUnlock(++ts, 1, -1));
      }
      VectorEventStream stream(std::move(measured));
      const auto t0 = std::chrono::steady_clock::now();
      (void)engine.ProcessStream(&stream, batch);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      rows.push_back({threads, batch, kMeasuredEvents / secs});
    }
  }

  const double serial = rows.front().events_per_sec;
  size_t max_threads = 0;
  for (const Row& row : rows) max_threads = std::max(max_threads, row.threads);
  const unsigned hardware = std::thread::hardware_concurrency();
  // When the sweep asks for more threads than the machine has, speedup rows
  // measure scheduler time-slicing, not scaling: flag the file so CI and
  // readers don't treat those rows as a regression (or an improvement).
  const bool valid_scaling = hardware >= max_threads;
  if (!valid_scaling) {
    std::fprintf(stderr,
                 "warning: sweep uses up to %zu threads but only %u hardware "
                 "thread(s) are available; speedup rows measure time-slicing, "
                 "not scaling (valid_scaling=false)\n",
                 max_threads, hardware);
  }
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"parallel_sweep\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"valid_scaling\": %s,\n"
               "  \"preloaded_runs\": %d,\n  \"measured_events\": %d,\n"
               "  \"results\": [\n",
               hardware, valid_scaling ? "true" : "false", kPreloadRuns,
               kMeasuredEvents);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %zu, \"batch\": %zu, "
                 "\"events_per_sec\": %.1f, \"speedup_vs_serial\": %.3f}%s\n",
                 rows[i].threads, rows[i].batch, rows[i].events_per_sec,
                 rows[i].events_per_sec / serial,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace cep

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  cep::RunParallelSweepAndWriteJson("BENCH_parallel.json");
  return 0;
}
