// cepshed_cli — run SASE queries over CSV event streams from the shell.
//
//   cepshed_cli generate --workload cluster --out trace.csv --duration-hours 6
//   cepshed_cli explain  --schema cluster --query 'PATTERN SEQ(...) ...'
//   cepshed_cli run      --schema cluster --query q.sase --input trace.csv
//                        --shedder sbls --theta 80 --stats
//
// Schemas: --schema accepts a file (one event type per line:
// `name attr:type attr:type ...`, types int|double|string|bool) or one of
// the builtin names `cluster`, `bike`, `stock`.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "service/drain.h"
#include "engine/engine.h"
#include "engine/multi.h"
#include "event/csv.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "event/fault_injection.h"
#include "nfa/compiler.h"
#include "nfa/dot.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "shedding/registry.h"
#include "workload/bikeshare.h"
#include "workload/google_trace.h"
#include "workload/stock.h"

namespace cep {
namespace {

// SIGINT/SIGTERM during `run` stop the ingest loop after the in-flight
// event (or batch) instead of killing the process mid-write: the engine
// writes a final snapshot and every requested export before exiting, so a
// later --restore-from resumes exactly-once.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleInterrupt(int) { g_interrupted = 1; }

void InstallInterruptHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleInterrupt;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int Usage() {
  std::string strategies;
  for (const ShedderStrategyInfo& info : ShedderRegistry::ListStrategies()) {
    if (!strategies.empty()) strategies += "|";
    strategies += info.name;
  }
  std::fprintf(
      stderr,
      "usage: cepshed_cli <run|generate|explain> [options]\n"
      "\n"
      "run      --schema <file|cluster|bike|stock> --query <file|text>\n"
      "         --input <events.csv> [--matches <out.csv>]\n"
      "         [--queries <file> [--opt] [--opt-dump]]  multi-query mode:\n"
      "           one query per line; --opt runs the optimizer pass\n"
      "           pipeline (CSE/DSE/merge/pushdown, docs/OPTIMIZER.md)\n"
      "         [--shedder <name|'name(key=val,...)'>] [--theta <micros>]\n"
      "           shedder names: %s\n"
      "         [--fraction <0..1>] [--max-runs <n>]\n"
      "         [--hash type:attr[,type:attr...]] [--bucket <width>]\n"
      "         [--resilience] [--run-bytes-budget <bytes>]\n"
      "         [--error-budget <n-consecutive>]\n"
      "         [--fault-drop <p>] [--fault-dup <p>] [--fault-delay <p>]\n"
      "         [--fault-corrupt <p>] [--fault-seed <n>]\n"
      "         [--threads <n> (--queries mode)] [--batch-size <n>]\n"
      "         [--checkpoint-dir <dir>] [--checkpoint-interval-events <n>]\n"
      "         [--checkpoint-keep <n>] [--checkpoint-sync]\n"
      "         [--restore-from <file|dir>]\n"
      "         [--stats] [--stats-interval-events <n>]\n"
      "         [--metrics-out <file[.prom|.json]>] [--trace-out <file>]\n"
      "         [--audit-out <file.jsonl>]\n"
      "         [--shadow-sample <1-in-n spans>] [--shadow-width <ts>]\n"
      "         [--shadow-seed <n>] [--calibration] [--slo-budget <frac>]\n"
      "         [--quality-out <file.json>]\n"
      "generate --workload cluster|bike|stock --out <events.csv>\n"
      "         [--duration-hours <h>] [--seed <n>] [--scale <f>]\n"
      "explain  --schema <...> --query <...> [--dot <out.dot>]\n",
      strategies.c_str());
  return 2;
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, std::string fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    return Has(key) ? std::atof(Get(key).c_str()) : fallback;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    return Has(key) ? std::atoll(Get(key).c_str()) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

Result<std::string> ReadFileOrLiteral(const std::string& arg) {
  std::ifstream file(arg);
  if (!file) return arg;  // treat as inline text
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

Result<ValueType> ParseValueType(const std::string& name) {
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  if (name == "bool") return ValueType::kBool;
  return Status::ParseError("unknown attribute type '" + name + "'");
}

Status LoadSchema(const std::string& arg, SchemaRegistry* registry) {
  if (arg == "cluster") return GoogleTraceGenerator::RegisterSchemas(registry);
  if (arg == "bike") return BikeShareGenerator::RegisterSchemas(registry);
  if (arg == "stock") return StockGenerator::RegisterSchemas(registry);
  std::ifstream file(arg);
  if (!file) return Status::IoError("cannot open schema file: " + arg);
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::istringstream fields{std::string(stripped)};
    std::string type_name;
    fields >> type_name;
    std::vector<AttributeDef> attrs;
    std::string attr_spec;
    while (fields >> attr_spec) {
      const size_t colon = attr_spec.find(':');
      if (colon == std::string::npos) {
        return Status::ParseError(
            StrFormat("schema line %zu: expected attr:type, got '%s'",
                      line_no, attr_spec.c_str()));
      }
      CEP_ASSIGN_OR_RETURN(ValueType vt,
                           ParseValueType(attr_spec.substr(colon + 1)));
      attrs.push_back(AttributeDef{attr_spec.substr(0, colon), vt});
    }
    CEP_RETURN_NOT_OK(
        registry->Register(type_name, std::move(attrs)).status());
  }
  return Status::OK();
}

Result<NfaPtr> CompileQuery(const std::string& arg,
                            const SchemaRegistry& registry) {
  CEP_ASSIGN_OR_RETURN(std::string text, ReadFileOrLiteral(arg));
  CEP_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
  CEP_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                       Analyze(std::move(parsed), registry));
  return CompileToNfa(std::move(analyzed));
}

Result<ShedderPtr> MakeShedder(const Args& args,
                               const SchemaRegistry& registry) {
  CEP_ASSIGN_OR_RETURN(auto parsed, ShedderRegistry::ParseSpec(
                                        args.Get("shedder", "none")));
  // Keys written inside the inline spec were written for this strategy
  // alone, so reject unknown ones as typos (flags below are filtered).
  for (const ShedderStrategyInfo& info : ShedderRegistry::ListStrategies()) {
    if (info.name != parsed.first) continue;
    for (const auto& [key, value] : parsed.second) {
      (void)value;
      const bool known = std::any_of(
          info.knobs.begin(), info.knobs.end(),
          [&key = key](const ShedderKnob& k) { return k.key == key; });
      if (!known) {
        return Status::InvalidArgument("shedder '" + parsed.first +
                                       "' has no option '" + key + "'");
      }
    }
  }
  ShedderParams& params = parsed.second;
  // Flag overlay: an option inside the inline spec wins over the flag.
  if (args.Has("seed")) params.emplace("seed", args.Get("seed"));
  if (args.Has("fraction")) params.emplace("drop", args.Get("fraction"));
  if (args.Has("hash")) params.emplace("hash", args.Get("hash"));
  if (args.Has("bucket")) params.emplace("bucket", args.Get("bucket"));
  if (args.Has("slices")) params.emplace("slices", args.Get("slices"));
  // CLI defaults that differ from the registry's bare defaults.
  params.emplace("wplus", args.Get("wplus", "4"));
  params.emplace("wminus", args.Get("wminus", "1"));
  ShedderEnv env;
  env.schema = &registry;
  return ShedderRegistry::MakeFromParams(parsed.first, params, env);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << text;
  if (!out.good()) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

// Multi-query mode: `run --queries <file>` evaluates every query in the
// file (one per line, # comments) over the same input through a MultiEngine,
// and --opt runs the optimizer pass pipeline (docs/OPTIMIZER.md) before
// evaluation. Per-query match counts go to stdout; --metrics-out exports the
// per-query label families plus cep_opt_* stats. Flags tied to single-engine
// state (checkpointing, shadow quality) are rejected rather than half-applied.
Status RunMultiCommand(const Args& args) {
  for (const char* flag :
       {"query", "matches", "checkpoint-dir", "restore-from", "shadow-sample",
        "shadow-width", "shadow-seed", "calibration", "slo-budget",
        "quality-out"}) {
    if (args.Has(flag)) {
      return Status::InvalidArgument(
          StrFormat("--%s is not supported in multi-query mode (--queries)",
                    flag));
    }
  }
  SchemaRegistry registry;
  CEP_RETURN_NOT_OK(LoadSchema(args.Get("schema"), &registry));

  std::ifstream file(args.Get("queries"));
  if (!file) {
    return Status::IoError("cannot open --queries file: " +
                           args.Get("queries"));
  }
  std::vector<NfaPtr> nfas;
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    auto nfa = CompileQuery(std::string(stripped), registry);
    CEP_RETURN_NOT_OK(
        nfa.status().WithContext(StrFormat("query line %zu", line_no)));
    nfas.push_back(nfa.MoveValueUnsafe());
  }
  if (nfas.empty()) {
    return Status::InvalidArgument("--queries file holds no queries");
  }

  const bool resilience = args.Has("resilience");
  CsvReadOptions csv_options;
  CsvReadStats csv_stats;
  if (resilience || args.Has("error-budget")) {
    csv_options.max_consecutive_errors =
        static_cast<size_t>(args.GetInt("error-budget", 64));
  }
  CEP_ASSIGN_OR_RETURN(std::vector<EventPtr> events,
                       ReadEventsCsvFile(registry, args.Get("input"),
                                         csv_options, &csv_stats));

  EngineOptions options;
  options.latency_threshold_micros = args.GetDouble("theta", 0.0);
  options.shed_amount.fraction = args.GetDouble("fraction", 0.2);
  options.max_runs = static_cast<size_t>(args.GetInt("max-runs", 0));
  if (resilience) {
    options.degradation.enabled = true;
    options.degradation.run_bytes_budget =
        static_cast<size_t>(args.GetInt("run-bytes-budget", 0));
    options.error_budget.enabled = true;
    options.error_budget.max_consecutive_errors =
        static_cast<size_t>(args.GetInt("error-budget", 64));
  }
  CEP_ASSIGN_OR_RETURN(options, options.Validated());

  MultiEngine multi;
  for (NfaPtr& nfa : nfas) {
    // Every query gets its own shedder instance built from the same flags
    // (shedders are stateful, so one object cannot serve two engines).
    CEP_ASSIGN_OR_RETURN(ShedderPtr shedder, MakeShedder(args, registry));
    multi.AddQuery(std::move(nfa), options, std::move(shedder));
  }
  if (args.Has("opt")) {
    opt::OptOptions opt_options;
    opt_options.dump_ir = args.Has("opt-dump");
    CEP_RETURN_NOT_OK(multi.Optimize(opt_options));
    for (const opt::PassDump& dump : multi.opt_dumps()) {
      std::printf("==== before pass '%s' ====\n%s", dump.pass.c_str(),
                  dump.before.c_str());
      std::printf("==== after pass '%s' ====\n%s", dump.pass.c_str(),
                  dump.after.c_str());
    }
  }
  multi.EnableParallel(static_cast<size_t>(args.GetInt("threads", 0)));
  obs::ShedAuditLog audit_log;
  if (args.Has("audit-out")) multi.AttachAuditLog(&audit_log);
  obs::Tracer tracer;
  if (args.Has("trace-out")) multi.AttachTracer(&tracer);

  // Fault injection wraps the materialised input exactly as in single-query
  // mode: the storm is upstream of the fan-out, so every query sees the
  // same perturbed stream.
  auto stream = std::make_unique<VectorEventStream>(events);
  std::unique_ptr<EventStream> source = std::move(stream);
  FaultInjectingStream* faults = nullptr;
  if (args.Has("fault-drop") || args.Has("fault-dup") ||
      args.Has("fault-delay") || args.Has("fault-corrupt")) {
    FaultInjectionOptions fault_options;
    fault_options.drop_probability = args.GetDouble("fault-drop", 0.0);
    fault_options.duplicate_probability = args.GetDouble("fault-dup", 0.0);
    fault_options.delay_probability = args.GetDouble("fault-delay", 0.0);
    fault_options.corrupt_probability = args.GetDouble("fault-corrupt", 0.0);
    fault_options.seed = static_cast<uint64_t>(args.GetInt("fault-seed", 7));
    auto injector = std::make_unique<FaultInjectingStream>(std::move(source),
                                                           fault_options);
    faults = injector.get();
    source = std::move(injector);
  }

  const size_t batch_size =
      static_cast<size_t>(args.GetInt("batch-size", 1));
  const uint64_t stats_interval =
      static_cast<uint64_t>(args.GetInt("stats-interval-events", 0));
  InstallInterruptHandlers();
  uint64_t offered = 0;
  if (batch_size <= 1 || stats_interval > 0) {
    while (EventPtr event = source->Next()) {
      if (g_interrupted) break;
      CEP_RETURN_NOT_OK(multi.OfferEvent(event));
      ++offered;
      if (stats_interval > 0 && offered % stats_interval == 0) {
        std::fprintf(stderr, "stats[%llu] %s\n",
                     static_cast<unsigned long long>(offered),
                     multi.AggregateMetrics().ToString().c_str());
      }
    }
  } else {
    std::vector<EventPtr> batch;
    batch.reserve(batch_size);
    for (;;) {
      if (g_interrupted) break;
      batch.clear();
      while (batch.size() < batch_size) {
        EventPtr event = source->Next();
        if (event == nullptr) break;
        batch.push_back(std::move(event));
      }
      if (batch.empty()) break;
      offered += batch.size();
      CEP_RETURN_NOT_OK(multi.ProcessBatch(batch));
    }
  }
  for (size_t k = 0; k < multi.num_engines(); ++k) {
    CEP_RETURN_NOT_OK(
        service::DrainEngine(multi.physical_engine(k), /*flush_runs=*/true));
  }

  for (size_t i = 0; i < multi.num_queries(); ++i) {
    std::printf("query %zu (%s): %llu matches\n", i,
                multi.query_name(i).c_str(),
                static_cast<unsigned long long>(
                    multi.engine(i).metrics().matches_emitted));
  }
  std::printf("%llu matches over %zu events across %zu queries "
              "(%zu engines)\n",
              static_cast<unsigned long long>(
                  multi.AggregateMetrics().matches_emitted),
              events.size(), multi.num_queries(), multi.num_engines());
  if (args.Has("stats")) {
    std::printf("%s\n", multi.AggregateMetrics().ToString().c_str());
    if (const opt::MultiQueryIr* ir = multi.ir()) {
      const opt::OptStats& s = ir->stats;
      std::printf(
          "opt: shared_preds=%zu merged=%llu groups=%llu folded=%llu "
          "states_eliminated=%llu prefilter_safe=%s\n",
          ir->preds.size(), static_cast<unsigned long long>(s.queries_merged),
          static_cast<unsigned long long>(s.merge_groups),
          static_cast<unsigned long long>(s.preds_folded),
          static_cast<unsigned long long>(s.states_eliminated),
          s.prefilter_safe ? "true" : "false");
      uint64_t skips = 0;
      for (size_t k = 0; k < multi.num_engines(); ++k) {
        skips += multi.physical_engine(k).shared_skips();
      }
      std::printf("opt: engine_skips=%llu events_prefiltered=%llu\n",
                  static_cast<unsigned long long>(skips),
                  static_cast<unsigned long long>(
                      multi.events_prefiltered()));
    }
    if (csv_stats.quarantined > 0) {
      std::printf("csv: %llu/%llu records quarantined (last: %s)\n",
                  static_cast<unsigned long long>(csv_stats.quarantined),
                  static_cast<unsigned long long>(csv_stats.lines_read),
                  csv_stats.last_error.c_str());
    }
    if (faults != nullptr) {
      std::printf("faults: %s\n", faults->stats().ToString().c_str());
    }
  }
  if (args.Has("metrics-out")) {
    const std::string path = args.Get("metrics-out");
    obs::Registry metrics_registry;
    multi.ExportMetrics(&metrics_registry);
    CEP_RETURN_NOT_OK(WriteTextFile(
        path, EndsWith(path, ".prom") ? metrics_registry.ToPrometheusText()
                                      : metrics_registry.ToJson()));
  }
  if (args.Has("trace-out")) {
    CEP_RETURN_NOT_OK(WriteTextFile(args.Get("trace-out"), tracer.ToJson()));
  }
  if (args.Has("audit-out")) {
    CEP_RETURN_NOT_OK(
        WriteTextFile(args.Get("audit-out"), audit_log.ToJsonl()));
  }
  return Status::OK();
}

Status RunCommand(const Args& args) {
  if (args.Has("queries")) return RunMultiCommand(args);
  // One query is evaluated in one serial pass per event; threads fan out
  // across the queries of --queries mode only.
  if (args.GetInt("threads", 0) > 1) {
    return Status::InvalidArgument(
        "--threads > 1 requires --queries: threads run the queries of a "
        "--queries file concurrently; a single query is evaluated serially");
  }
  SchemaRegistry registry;
  CEP_RETURN_NOT_OK(LoadSchema(args.Get("schema"), &registry));
  CEP_ASSIGN_OR_RETURN(NfaPtr nfa, CompileQuery(args.Get("query"), registry));

  const bool resilience = args.Has("resilience");
  CsvReadOptions csv_options;
  CsvReadStats csv_stats;
  if (resilience || args.Has("error-budget")) {
    csv_options.max_consecutive_errors =
        static_cast<size_t>(args.GetInt("error-budget", 64));
  }
  CEP_ASSIGN_OR_RETURN(std::vector<EventPtr> events,
                       ReadEventsCsvFile(registry, args.Get("input"),
                                         csv_options, &csv_stats));

  EngineOptions options;
  options.latency_threshold_micros = args.GetDouble("theta", 0.0);
  options.shed_amount.fraction = args.GetDouble("fraction", 0.2);
  options.max_runs = static_cast<size_t>(args.GetInt("max-runs", 0));
  options.collect_matches = false;
  if (resilience) {
    options.degradation.enabled = true;
    options.degradation.run_bytes_budget =
        static_cast<size_t>(args.GetInt("run-bytes-budget", 0));
    options.error_budget.enabled = true;
    options.error_budget.max_consecutive_errors =
        static_cast<size_t>(args.GetInt("error-budget", 64));
  }
  options.checkpoint.directory = args.Get("checkpoint-dir");
  options.checkpoint.interval_events = static_cast<size_t>(
      args.GetInt("checkpoint-interval-events", 10000));
  options.checkpoint.keep =
      static_cast<size_t>(args.GetInt("checkpoint-keep", 3));
  options.checkpoint.synchronous = args.Has("checkpoint-sync");
  options.checkpoint.restore_from = args.Get("restore-from");
  options.checkpoint.fault_injection_active =
      args.Has("fault-drop") || args.Has("fault-dup") ||
      args.Has("fault-delay") || args.Has("fault-corrupt");
  // Matches are engine state when checkpointing: a resumed run must re-emit
  // exactly the matches the interrupted run produced, so they are collected
  // in the engine (and snapshotted) and written once at the end instead of
  // streamed through the callback.
  const bool ckpt_active = options.checkpoint.enabled() ||
                           !options.checkpoint.restore_from.empty();
  if (ckpt_active) options.collect_matches = true;
  // Shedding-quality observability: shadow recall oracle, calibration
  // monitor, θ SLO burn rates (docs/OBSERVABILITY.md).
  options.quality.shadow.sample_every =
      static_cast<size_t>(args.GetInt("shadow-sample", 0));
  options.quality.shadow.span_width = args.GetInt("shadow-width", 0);
  if (args.Has("shadow-seed")) {
    options.quality.shadow.seed =
        static_cast<uint64_t>(args.GetInt("shadow-seed", 0));
  }
  if (args.Has("calibration")) options.quality.calibration.enabled = true;
  if (args.Has("slo-budget")) {
    options.quality.slo.enabled = true;
    options.quality.slo.budget_fraction = args.GetDouble("slo-budget", 0.01);
  }
  CEP_ASSIGN_OR_RETURN(options, options.Validated());
  CEP_ASSIGN_OR_RETURN(ShedderPtr shedder, MakeShedder(args, registry));

  Engine engine(nfa, options, std::move(shedder));
  // Observability sinks. Exports use the engine's virtual busy clock (the
  // default latency mode), so for a fixed input and seed they are
  // byte-identical across runs.
  obs::ShedAuditLog audit_log;
  if (args.Has("audit-out")) engine.AttachAuditLog(&audit_log);
  obs::Tracer tracer;
  if (args.Has("trace-out")) engine.AttachTracer(&tracer);
  std::ofstream matches_file;
  const bool to_file = args.Has("matches");
  if (to_file) {
    matches_file.open(args.Get("matches"));
    if (!matches_file) {
      return Status::IoError("cannot open --matches file for writing");
    }
  }
  uint64_t printed = 0;
  auto emit_match = [&](const Match& match) {
    if (to_file) {
      if (match.complex_event != nullptr) {
        matches_file << EventToCsvLine(*match.complex_event) << "\n";
      } else {
        matches_file << match.ToString(engine.nfa().query()) << "\n";
      }
    } else if (printed < 20) {
      if (match.complex_event != nullptr) {
        std::printf("%s\n", match.complex_event->ToString().c_str());
      } else {
        std::printf("%s\n",
                    match.ToString(engine.nfa().query()).c_str());
      }
      ++printed;
      if (printed == 20) std::printf("... (use --matches FILE for all)\n");
    }
  };
  if (!ckpt_active) engine.SetMatchCallback(emit_match);
  // Resume: load the snapshot (newest valid one when given a directory) and
  // skip the events it already consumed, so the remainder of the stream
  // replays exactly as the uninterrupted run would have processed it.
  const size_t total_events = events.size();
  if (!options.checkpoint.restore_from.empty()) {
    CEP_RETURN_NOT_OK(
        engine.RestoreFromFile(options.checkpoint.restore_from));
    const uint64_t skip = engine.stream_offset();
    if (skip > events.size()) {
      return Status::InvalidArgument(StrFormat(
          "snapshot was taken at event %llu but the input has only %zu "
          "events: wrong input file?",
          static_cast<unsigned long long>(skip), events.size()));
    }
    events.erase(events.begin(),
                 events.begin() + static_cast<ptrdiff_t>(skip));
  }
  // Optional fault injection between the materialised input and the engine
  // (deterministic storms for resilience experiments).
  auto stream = std::make_unique<VectorEventStream>(events);
  std::unique_ptr<EventStream> source = std::move(stream);
  FaultInjectingStream* faults = nullptr;
  if (args.Has("fault-drop") || args.Has("fault-dup") ||
      args.Has("fault-delay") || args.Has("fault-corrupt")) {
    FaultInjectionOptions fault_options;
    fault_options.drop_probability = args.GetDouble("fault-drop", 0.0);
    fault_options.duplicate_probability = args.GetDouble("fault-dup", 0.0);
    fault_options.delay_probability = args.GetDouble("fault-delay", 0.0);
    fault_options.corrupt_probability = args.GetDouble("fault-corrupt", 0.0);
    fault_options.seed = static_cast<uint64_t>(args.GetInt("fault-seed", 7));
    auto injector = std::make_unique<FaultInjectingStream>(std::move(source),
                                                           fault_options);
    faults = injector.get();
    source = std::move(injector);
  }

  const size_t batch_size =
      static_cast<size_t>(args.GetInt("batch-size", 1));
  const uint64_t stats_interval =
      static_cast<uint64_t>(args.GetInt("stats-interval-events", 0));
  InstallInterruptHandlers();
  uint64_t offered = 0;
  bool interrupted = false;
  if (batch_size <= 1 || stats_interval > 0) {
    // Event-at-a-time loop (also used for periodic stats snapshots, which
    // go to stderr so stdout stays parseable).
    while (EventPtr event = source->Next()) {
      if (g_interrupted) {
        interrupted = true;
        break;
      }
      CEP_RETURN_NOT_OK(engine.OfferEvent(event));
      ++offered;
      if (stats_interval > 0 && offered % stats_interval == 0) {
        std::fprintf(stderr, "stats[%llu] %s\n",
                     static_cast<unsigned long long>(offered),
                     engine.metrics().ToString().c_str());
      }
    }
  } else {
    std::vector<EventPtr> batch;
    batch.reserve(batch_size);
    for (;;) {
      if (g_interrupted) {
        interrupted = true;
        break;
      }
      batch.clear();
      while (batch.size() < batch_size) {
        EventPtr event = source->Next();
        if (event == nullptr) break;
        batch.push_back(std::move(event));
      }
      if (batch.empty()) break;
      offered += batch.size();
      CEP_RETURN_NOT_OK(engine.ProcessBatch(batch));
    }
  }
  // Surface background-writer errors and make the final snapshot durable
  // before reporting success. An interrupted run drains without
  // Engine::Flush(): deferred final states stay parked so the resumed run
  // emits them exactly once.
  if (interrupted) {
    std::fprintf(stderr,
                 "interrupted after %llu events: writing final snapshot "
                 "and exports\n",
                 static_cast<unsigned long long>(offered));
    CEP_RETURN_NOT_OK(service::DrainEngine(engine, /*flush_runs=*/false));
  } else {
    CEP_RETURN_NOT_OK(engine.FlushCheckpoints());
  }
  if (ckpt_active) {
    for (const Match& match : engine.matches()) emit_match(match);
  }
  // Close a still-open shadow span so end-of-stream matches are scored
  // before the quality/metrics exports are written.
  engine.FinishShadowSpan();
  if (args.Has("quality-out")) {
    CEP_RETURN_NOT_OK(WriteTextFile(args.Get("quality-out"),
                                    engine.ExportQualityJson() + "\n"));
  }
  if (args.Has("metrics-out")) {
    const std::string path = args.Get("metrics-out");
    obs::Registry metrics_registry;
    engine.ExportMetrics(&metrics_registry);
    CEP_RETURN_NOT_OK(WriteTextFile(
        path, EndsWith(path, ".prom") ? metrics_registry.ToPrometheusText()
                                      : metrics_registry.ToJson()));
  }
  if (args.Has("trace-out")) {
    CEP_RETURN_NOT_OK(WriteTextFile(args.Get("trace-out"), tracer.ToJson()));
  }
  if (args.Has("audit-out")) {
    CEP_RETURN_NOT_OK(
        WriteTextFile(args.Get("audit-out"), audit_log.ToJsonl()));
  }
  std::printf("%llu matches over %zu events\n",
              static_cast<unsigned long long>(
                  engine.metrics().matches_emitted),
              total_events);
  if (args.Has("stats")) {
    std::printf("%s\n", engine.metrics().ToString().c_str());
    if (options.checkpoint.enabled()) {
      std::printf("checkpoints: %llu written to %s\n",
                  static_cast<unsigned long long>(
                      engine.checkpoints_written()),
                  options.checkpoint.directory.c_str());
    }
    if (csv_stats.quarantined > 0) {
      std::printf("csv: %llu/%llu records quarantined (last: %s)\n",
                  static_cast<unsigned long long>(csv_stats.quarantined),
                  static_cast<unsigned long long>(csv_stats.lines_read),
                  csv_stats.last_error.c_str());
    }
    if (faults != nullptr) {
      std::printf("faults: %s\n", faults->stats().ToString().c_str());
    }
    if (engine.degradation() != nullptr) {
      std::printf("degradation: %s\n",
                  engine.degradation()->ToString().c_str());
    }
    if (options.quality.any_enabled()) {
      std::printf("quality: %s\n", engine.ExportQualityJson().c_str());
    }
  }
  return Status::OK();
}

Status GenerateCommand(const Args& args) {
  const std::string workload = args.Get("workload", "cluster");
  const auto hours = args.GetInt("duration-hours", 6);
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const double scale = args.GetDouble("scale", 1.0);
  SchemaRegistry registry;
  std::vector<EventPtr> events;
  if (workload == "cluster") {
    CEP_RETURN_NOT_OK(GoogleTraceGenerator::RegisterSchemas(&registry));
    GoogleTraceOptions options;
    options.duration = hours * kHour;
    options.jobs_per_hour = 150.0 * scale;
    options.seed = seed;
    CEP_ASSIGN_OR_RETURN(events,
                         GoogleTraceGenerator(options).Generate(registry));
  } else if (workload == "bike") {
    CEP_RETURN_NOT_OK(BikeShareGenerator::RegisterSchemas(&registry));
    BikeShareOptions options;
    options.duration = hours * kHour;
    options.num_zones = 200;
    options.requests_per_minute = 2.0 * scale;
    options.seed = seed;
    CEP_ASSIGN_OR_RETURN(events,
                         BikeShareGenerator(options).Generate(registry));
  } else if (workload == "stock") {
    CEP_RETURN_NOT_OK(StockGenerator::RegisterSchemas(&registry));
    StockOptions options;
    options.duration = hours * kHour;
    options.ticks_per_second = 12.0 * scale;
    options.seed = seed;
    CEP_ASSIGN_OR_RETURN(events, StockGenerator(options).Generate(registry));
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  CEP_RETURN_NOT_OK(WriteEventsCsvFile(args.Get("out"), events));
  std::printf("wrote %zu events to %s\n", events.size(),
              args.Get("out").c_str());
  return Status::OK();
}

Status ExplainCommand(const Args& args) {
  SchemaRegistry registry;
  CEP_RETURN_NOT_OK(LoadSchema(args.Get("schema"), &registry));
  CEP_ASSIGN_OR_RETURN(NfaPtr nfa, CompileQuery(args.Get("query"), registry));
  std::printf("%s\n%s", nfa->query().ToString().c_str(),
              nfa->ToString().c_str());
  if (args.Has("dot")) {
    std::ofstream dot(args.Get("dot"));
    if (!dot) return Status::IoError("cannot open --dot file");
    dot << NfaToDot(*nfa);
    std::printf("wrote %s\n", args.Get("dot").c_str());
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  Status status;
  if (std::strcmp(argv[1], "run") == 0) {
    status = RunCommand(args);
  } else if (std::strcmp(argv[1], "generate") == 0) {
    status = GenerateCommand(args);
  } else if (std::strcmp(argv[1], "explain") == 0) {
    status = ExplainCommand(args);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cep

int main(int argc, char** argv) { return cep::Main(argc, argv); }
