// perfbench_driver: runs one workload for a fixed time as repeated fresh
// passes over its seeded input and prints what they measured.
//
//   perfbench_driver --workload <cluster_exact|stock_shed|server_ckpt>
//       --seed <n> --seconds <s> --trace <0|1>
//       --server <path to cepshed_server> --work-dir <dir>
//
// --trace 0 reports the end-to-end metrics over untraced passes: the
// timings of the fastest pass, the other metrics as medians. --trace 1
// alternates untraced and traced passes and reports the per-layer metrics
// of the traced ones (medians), plus the tracing overhead (throughput of
// the fastest traced minus the fastest untraced pass). The last stdout line
// is the result object; the lines before it carry the pass counts, the
// counts that must repeat exactly for one seed, and (traced) each module's
// share of the traced timed section.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/string_util.h"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 400;

/// Per-layer metrics, in BENCHMARK.json order. A workload that bypasses a
/// layer reports 0 for it.
const char* const kLayerMetrics[] = {
    "event.decode_ns_per_event",   "query.compile_us_per_query",
    "opt.optimize_us",             "opt.events_prefiltered",
    "opt.shared_pred_skips",       "engine.process_ns_per_event",
    "engine.edge_evaluations",     "engine.useful_edge_ratio",
    "engine.fast_path_ratio",      "engine.peak_runs",
    "engine.peak_run_bytes",       "shedding.probe_ns_per_event",
    "shedding.hook_ns_per_event",  "shedding.episode_us",
    "shedding.episodes",           "shedding.runs_shed",
    "ckpt.snapshot_us",            "ckpt.snapshot_bytes",
    "ckpt.snapshots",              "service.ingest_ns_per_event",
    "service.frame_decode_ns",     "service.spawn_ms",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--server") {
      args.server = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.server.empty() ||
      args.work_dir.empty() || args.seconds <= 0) {
    Die("usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --server <path> --work-dir <dir>");
  }
  return args;
}

double Throughput(const PassResult& pass) {
  return static_cast<double>(pass.events) / pass.timed_s;
}

/// `value(pass)` of every pass.
template <typename Fn>
std::vector<double> Values(const std::vector<const PassResult*>& passes,
                           Fn&& value) {
  std::vector<double> values;
  for (const PassResult* pass : passes) values.push_back(value(*pass));
  return values;
}

/// Median over passes of `value(pass)`.
template <typename Fn>
double MedianOf(const std::vector<const PassResult*>& passes, Fn&& value) {
  return Median(Values(passes, value));
}

/// Smallest `value(pass)`: the time of the pass that other tenants of the
/// host slowed least. Their interference only adds time, and the fastest
/// of a run's passes moves far less with the host's load than the median
/// pass does (see README.md, "Host drift").
template <typename Fn>
double FastestOf(const std::vector<const PassResult*>& passes, Fn&& value) {
  const std::vector<double> values = Values(passes, value);
  return *std::min_element(values.begin(), values.end());
}

/// Throughput of the fastest pass.
double BestThroughput(const std::vector<const PassResult*>& passes) {
  const std::vector<double> values = Values(passes, Throughput);
  return *std::max_element(values.begin(), values.end());
}

/// The q-quantile of one pass's latency samples; needs at least ten
/// samples beyond it.
double LatencyQuantile(const PassResult& pass, double q) {
  const double beyond = (1 - q) * static_cast<double>(pass.latency_us.size());
  if (beyond < 10) {
    Die(cep::StrFormat("%zu latency samples are too few for quantile %g",
                       pass.latency_us.size(), q));
  }
  return Quantile(pass.latency_us, q);
}

std::string Metric(const std::string& name, double value, const char* unit) {
  return cep::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        name.c_str(), value, unit);
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out;
  for (const auto& [name, value] : values) {
    if (!out.empty()) out += ", ";
    out += cep::StrFormat("\"%s\": %.17g", name.c_str(), value);
  }
  return "{" + out + "}";
}

const char* LayerUnit(const std::string& name) {
  if (name.find("_ns") != std::string::npos) return "ns";
  if (name.find("_us") != std::string::npos) return "us";
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("_bytes") != std::string::npos) return "bytes";
  if (name.find("_ratio") != std::string::npos) return "ratio";
  return "count";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  if (::chdir(args.work_dir.c_str()) != 0) Die("cannot enter work dir");

  Env env;
  env.seed = args.seed;
  env.trace = args.trace;
  env.server_binary = args.server;
  std::unique_ptr<Workload> workload;
  if (args.workload == "cluster_exact") {
    workload = MakeClusterExact(env);
  } else if (args.workload == "stock_shed") {
    workload = MakeStockShed(env);
  } else if (args.workload == "server_ckpt") {
    workload = MakeServerCkpt(env);
  } else {
    Die("unknown workload " + args.workload);
  }

  // Fresh passes until the time is up; a traced run alternates untraced
  // and traced passes so both see the same host drift.
  std::vector<PassResult> passes;
  const int64_t start = NowNs();
  const int min_passes = args.trace ? 2 * kMinPasses : kMinPasses;
  while (static_cast<int>(passes.size()) < kMaxPasses &&
         (static_cast<int>(passes.size()) < min_passes ||
          static_cast<double>(NowNs() - start) / 1e9 < args.seconds)) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    passes.push_back(workload->RunPass(traced));
    const PassResult& pass = passes.back();
    std::fprintf(stderr,
                 "pass %zu%s: %llu events in %.3f s, %llu/%llu failed\n",
                 passes.size(), traced ? " (traced)" : "",
                 static_cast<unsigned long long>(pass.events), pass.timed_s,
                 static_cast<unsigned long long>(pass.failed),
                 static_cast<unsigned long long>(pass.attempted));
  }
  // A traced run that ran out of time on an untraced pass drops it, so
  // both halves have the same number of passes.
  if (args.trace && passes.size() % 2 == 1) passes.pop_back();

  std::vector<const PassResult*> untraced;
  std::vector<const PassResult*> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult& pass : passes) {
    (pass.traced ? traced : untraced).push_back(&pass);
    attempted += pass.attempted;
    failed += pass.failed;
  }

  // Determinism: every count must read the same on every pass that has it.
  std::map<std::string, double> counts;
  for (const PassResult& pass : passes) {
    for (const auto& [name, value] : pass.counts) {
      const auto [it, fresh] = counts.emplace(name, value);
      if (!fresh && it->second != value) {
        std::fprintf(stderr,
                     "count %s differs between passes: %.17g vs %.17g\n",
                     name.c_str(), it->second, value);
        ++failed;
      }
    }
  }

  std::vector<std::string> metrics;
  if (!args.trace) {
    metrics.push_back(
        Metric("throughput_eps", BestThroughput(untraced), "1/s"));
    metrics.push_back(Metric(
        "latency_p50_us",
        FastestOf(untraced,
                  [](const PassResult& p) { return LatencyQuantile(p, 0.5); }),
        "us"));
    metrics.push_back(Metric(
        "latency_p99_us",
        FastestOf(untraced,
                  [](const PassResult& p) { return LatencyQuantile(p, 0.99); }),
        "us"));
    metrics.push_back(Metric(
        "recall",
        MedianOf(untraced, [](const PassResult& p) { return p.recall; }),
        "ratio"));
    metrics.push_back(Metric(
        "precision",
        MedianOf(untraced, [](const PassResult& p) { return p.precision; }),
        "ratio"));
    metrics.push_back(Metric(
        "setup_s",
        FastestOf(untraced,
                  [](const PassResult& p) { return Median(p.setup_s); }),
        "s"));
    metrics.push_back(Metric(
        "peak_rss_mb",
        MedianOf(untraced, [](const PassResult& p) { return p.peak_rss_mb; }),
        "MiB"));
  } else {
    for (const char* name : kLayerMetrics) {
      metrics.push_back(Metric(
          name,
          MedianOf(traced,
                   [name](const PassResult& p) {
                     const auto it = p.layers.find(name);
                     return it == p.layers.end() ? 0.0 : it->second;
                   }),
          LayerUnit(name)));
    }
    metrics.push_back(Metric("trace.overhead_eps",
                             BestThroughput(traced) - BestThroughput(untraced),
                             "1/s"));
  }

  // Module shares of the traced timed section, medians over traced passes.
  std::map<std::string, double> shares;
  for (const PassResult* pass : traced) {
    for (const auto& [module, share] : pass->shares) shares[module] = 0;
  }
  for (auto& [module, share] : shares) {
    share = MedianOf(traced, [&module](const PassResult& p) {
      const auto it = p.shares.find(module);
      return it == p.shares.end() ? 0.0 : it->second;
    });
  }

  std::printf("passes {\"untraced\": %zu, \"traced\": %zu}\n", untraced.size(),
              traced.size());
  std::printf("counts %s\n", JsonObject(counts).c_str());
  std::printf("shares %s\n", JsonObject(shares).c_str());
  std::string joined;
  for (const std::string& metric : metrics) {
    if (!joined.empty()) joined += ", ";
    joined += metric;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), joined.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
