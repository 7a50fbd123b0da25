// The in-process workloads. cluster_exact: eight cluster queries through one
// optimised MultiEngine, no shedding. stock_shed: the Kleene rising-run
// query under skip-till-next-match, shed by SBLS at a fixed θ. Both decode a
// CSV rendering of a seeded stream on every pass, one latency sample per
// event.
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "engine/multi.h"
#include "shedding/registry.h"
#include "workload/google_trace.h"
#include "workload/stock.h"

namespace perfbench {
namespace {

using cep::EngineOptions;
using cep::EventPtr;
using cep::NfaPtr;
using cep::SchemaRegistry;

// --- cluster_exact ---------------------------------------------------------

/// The paper's Q1 and Q2 (3-hour windows) plus six variants with other
/// windows and priority bounds: eight distinct queries, so the optimizer's
/// merge pass finds nothing to merge.
std::vector<std::string> ClusterPanel() {
  return {Q1Text(3, 5), Q2Text(3, -1), Q1Text(5, 5), Q1Text(2, 3),
          Q1Text(4, 8), Q2Text(5, -1), Q2Text(2, 4), Q2Text(4, 8)};
}

class ClusterExact : public Workload {
 public:
  explicit ClusterExact(const Env& env) {
    Check(cep::GoogleTraceGenerator::RegisterSchemas(&registry_),
          "cluster schemas");
    cep::GoogleTraceOptions options;
    options.duration = 80 * cep::kHour;
    options.jobs_per_hour = 30.0;
    options.burst_multiplier = 1.0;
    options.seed = env.seed;
    cep::GoogleTraceGenerator generator(options);
    lines_ = RenderCsv(Take(generator.Generate(registry_), "cluster trace"));
    texts_ = ClusterPanel();
    // Golden: one unoptimised engine per query over the decoded trace.
    const std::vector<EventPtr> events = DecodeAll(registry_, lines_);
    golden_.resize(texts_.size());
    for (size_t q = 0; q < texts_.size(); ++q) {
      cep::Engine engine(CompileQuery(texts_[q], registry_, nullptr),
                         Options());
      engine.SetMatchCallback(AppendFingerprint(&golden_[q]));
      for (const EventPtr& event : events) {
        Check(engine.ProcessEvent(event), "golden cluster run");
      }
    }
  }

  PassResult RunPass(bool traced) override {
    PassResult result;
    result.traced = traced;
    Tracer tracer;
    Tracer* t = traced ? &tracer : nullptr;
    // Extra set-ups steady the set-up median; only the last one runs.
    for (int i = 0; i < kExtraSetups; ++i) {
      const int64_t t0 = NowNs();
      Setup(nullptr);
      result.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    std::vector<std::vector<uint64_t>> got(texts_.size());
    for (size_t q = 0; q < texts_.size(); ++q) {
      ReserveTouched(&got[q], golden_[q].size());
    }
    ReserveTouched(&result.latency_us, lines_.size());
    const double baseline_mb = ResetPeakRss();
    const int64_t t0 = NowNs();
    std::unique_ptr<cep::MultiEngine> multi = Setup(t);
    result.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    for (size_t q = 0; q < texts_.size(); ++q) {
      multi->engine(q).SetMatchCallback(AppendFingerprint(&got[q]));
    }

    std::vector<const cep::Engine*> engines;
    for (size_t k = 0; k < multi->num_engines(); ++k) {
      engines.push_back(&multi->physical_engine(k));
    }
    FeedLines(
        registry_, lines_, t, engines,
        [&](const EventPtr& event) { return multi->ProcessEvent(event); },
        &result);
    result.peak_rss_mb =
        ProcStatusField("self", "VmHWM:") / 1024 - baseline_mb;
    result.counts["threads"] = ProcStatusField("self", "Threads:");

    uint64_t found = 0;
    uint64_t expected = 0;
    uint64_t common = 0;
    for (size_t q = 0; q < texts_.size(); ++q) {
      result.failed += Mismatches(got[q], golden_[q]);
      found += got[q].size();
      expected += golden_[q].size();
      common += CommonCount(got[q], golden_[q]);
    }
    result.attempted += expected;
    std::tie(result.recall, result.precision) =
        RecallPrecision(common, found, expected);

    const cep::EngineMetrics m = multi->AggregateMetrics();
    uint64_t skips = 0;
    for (const cep::Engine* engine : engines) skips += engine->shared_skips();
    result.counts["engine.edge_evaluations"] =
        static_cast<double>(m.edge_evaluations);
    result.counts["shedding.runs_shed"] = static_cast<double>(m.runs_shed);
    result.counts["opt.events_prefiltered"] =
        static_cast<double>(multi->events_prefiltered());
    result.counts["opt.engines"] = static_cast<double>(multi->num_engines());
    result.counts["matches"] = static_cast<double>(found);
    if (traced) {
      EngineLayers(tracer, m, result.events, texts_.size(), &result);
      result.layers["opt.optimize_us"] =
          tracer.total_ns(Layer::kOptimize) / 1e3;
      result.layers["opt.events_prefiltered"] =
          static_cast<double>(multi->events_prefiltered());
      result.layers["opt.shared_pred_skips"] = static_cast<double>(skips);
    }
    return result;
  }

 private:
  static constexpr int kExtraSetups = 4;

  /// Exhaustive evaluation; matches go to the callback, not the engine.
  static EngineOptions Options() {
    EngineOptions options;
    options.collect_matches = false;
    return options;
  }

  /// Query text to a MultiEngine ready for its first event.
  std::unique_ptr<cep::MultiEngine> Setup(Tracer* tracer) {
    auto multi = std::make_unique<cep::MultiEngine>();
    for (const std::string& text : texts_) {
      multi->AddQuery(CompileQuery(text, registry_, tracer), Options());
    }
    Span span(tracer, Layer::kOptimize);
    Check(multi->Optimize(), "optimize");
    return multi;
  }

  SchemaRegistry registry_;
  std::vector<std::string> lines_;
  std::vector<std::string> texts_;
  std::vector<std::vector<uint64_t>> golden_;
};

// --- stock_shed ------------------------------------------------------------

/// Rising runs of one symbol: a tick, then at least three later ticks of the
/// same symbol, each above the first and above the previous one, within a
/// minute.
constexpr char kRisingQuery[] =
    "PATTERN SEQ(tick a, tick+ b[]) "
    "WHERE b[i].symbol = a.symbol, b[i].price > a.price, "
    "b[i].price > b[i-1].price, COUNT(b[]) >= 3 "
    "WITHIN 1 minutes "
    "RETURN rally(symbol = a.symbol, from = a.price, to = b[last].price, "
    "length = COUNT(b[]))";

class StockShed : public Workload {
 public:
  explicit StockShed(const Env& env) {
    Check(cep::StockGenerator::RegisterSchemas(&registry_), "stock schemas");
    cep::StockOptions options;
    options.duration = 5 * cep::kMinute;
    options.num_symbols = 100;
    options.seed = env.seed;
    cep::StockGenerator generator(options);
    lines_ = RenderCsv(Take(generator.Generate(registry_), "stock stream"));
    // Golden: the unshed engine. Reference: the shed engine, which every
    // pass must reproduce exactly, since shedding runs on the virtual clock.
    const std::vector<EventPtr> events = DecodeAll(registry_, lines_);
    for (const bool shed : {false, true}) {
      cep::Engine engine(CompileQuery(kRisingQuery, registry_, nullptr),
                         Options(),
                         shed ? MakeSbls(nullptr) : cep::ShedderPtr());
      std::vector<uint64_t>* out = shed ? &reference_ : &golden_;
      engine.SetMatchCallback(AppendFingerprint(out));
      for (const EventPtr& event : events) {
        Check(engine.ProcessEvent(event), "reference stock run");
      }
      Check(engine.Flush(), "reference stock flush");
    }
  }

  PassResult RunPass(bool traced) override {
    PassResult result;
    result.traced = traced;
    Tracer tracer;
    Tracer* t = traced ? &tracer : nullptr;
    // Extra set-ups steady the set-up median; only the last one runs.
    for (int i = 0; i < kExtraSetups; ++i) {
      const int64_t t0 = NowNs();
      Setup(nullptr);
      result.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    std::vector<uint64_t> got;
    ReserveTouched(&got, reference_.size());
    ReserveTouched(&result.latency_us, lines_.size());
    const double baseline_mb = ResetPeakRss();
    const int64_t t0 = NowNs();
    std::unique_ptr<cep::Engine> engine = Setup(t);
    result.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    engine->SetMatchCallback(AppendFingerprint(&got));

    FeedLines(
        registry_, lines_, t, {engine.get()},
        [&](const EventPtr& event) { return engine->ProcessEvent(event); },
        &result);
    if (!engine->Flush().ok()) ++result.failed;
    result.peak_rss_mb =
        ProcStatusField("self", "VmHWM:") / 1024 - baseline_mb;
    result.counts["threads"] = ProcStatusField("self", "Threads:");

    result.failed += Mismatches(got, reference_);
    result.attempted += reference_.size();
    std::tie(result.recall, result.precision) = RecallPrecision(
        CommonCount(got, golden_), got.size(), golden_.size());

    const cep::EngineMetrics& m = engine->metrics();
    result.counts["engine.edge_evaluations"] =
        static_cast<double>(m.edge_evaluations);
    result.counts["shedding.runs_shed"] = static_cast<double>(m.runs_shed);
    result.counts["matches"] = static_cast<double>(got.size());
    if (traced) EngineLayers(tracer, m, result.events, 1, &result);
    return result;
  }

 private:
  static constexpr int kExtraSetups = 4;

  /// Skip-till-next-match (skip-till-any-match forks a run per Kleene
  /// extension) and θ = 60 µs. The defaults detect overload on the
  /// virtual-cost clock and shed 20% of the runs per episode. Matches go to
  /// the callback.
  static EngineOptions Options() {
    EngineOptions options;
    options.selection = cep::SelectionStrategy::kSkipTillNextMatch;
    options.latency_threshold_micros = 60.0;
    options.collect_matches = false;
    return options;
  }

  /// SBLS in the paper's configuration, hashing partial matches by symbol;
  /// wrapped in a TracingShedder on traced passes.
  cep::ShedderPtr MakeSbls(Tracer* tracer) const {
    cep::ShedderEnv env;
    env.schema = &registry_;
    return MaybeTrace(
        Take(cep::ShedderRegistry::Make(
                 "sbls(seed=23317,slices=16,wplus=4,wminus=1,hash=tick:symbol)",
                 env),
             "sbls"),
        tracer);
  }

  /// Query text to an engine with its shedder, ready for its first event.
  std::unique_ptr<cep::Engine> Setup(Tracer* tracer) {
    return std::make_unique<cep::Engine>(
        CompileQuery(kRisingQuery, registry_, tracer), Options(),
        MakeSbls(tracer));
  }

  SchemaRegistry registry_;
  std::vector<std::string> lines_;
  std::vector<uint64_t> golden_;
  std::vector<uint64_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeClusterExact(const Env& env) {
  return std::make_unique<ClusterExact>(env);
}

std::unique_ptr<Workload> MakeStockShed(const Env& env) {
  return std::make_unique<StockShed>(env);
}

}  // namespace perfbench
