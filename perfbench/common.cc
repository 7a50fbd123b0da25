#include "common.h"

#include <malloc.h>

#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "nfa/compiler.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace perfbench {

double ProcStatusField(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream value(line.substr(std::string(field).size()));
      double number = 0;
      value >> number;
      return number;
    }
  }
  Die(std::string("no ") + field + " in /proc/" + pid + "/status");
}

double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset VmHWM through /proc/self/clear_refs");
  return ProcStatusField("self", "VmRSS:") / 1024;
}

cep::NfaPtr CompileQuery(const std::string& text,
                         const cep::SchemaRegistry& registry, Tracer* tracer) {
  Span span(tracer, Layer::kCompile);
  cep::ParsedQuery parsed = Take(cep::ParseQuery(text), "parse query");
  cep::AnalyzedQuery analyzed =
      Take(cep::Analyze(std::move(parsed), registry), "analyze query");
  return Take(cep::CompileToNfa(std::move(analyzed)), "compile query");
}

std::vector<std::string> RenderCsv(const std::vector<cep::EventPtr>& events) {
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const cep::EventPtr& event : events) {
    lines.push_back(cep::EventToCsvLine(*event));
  }
  return lines;
}

std::vector<cep::EventPtr> DecodeAll(const cep::SchemaRegistry& registry,
                                     const std::vector<std::string>& lines) {
  std::vector<cep::EventPtr> events;
  events.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    events.push_back(
        Take(cep::EventFromCsvLine(registry, lines[i], i + 1), "decode"));
  }
  return events;
}

std::vector<uint64_t> Fingerprints(const cep::Engine& engine) {
  std::vector<uint64_t> out;
  out.reserve(engine.matches().size());
  for (const cep::Match& match : engine.matches()) {
    out.push_back(match.fingerprint);
  }
  return out;
}

size_t LiveRunBytes(const cep::Engine& engine) {
  size_t bytes = 0;
  for (const cep::RunPtr& run : engine.runs()) bytes += run->ApproxBytes();
  return bytes;
}

void EngineLayers(const Tracer& tracer, const cep::EngineMetrics& m,
                  uint64_t events, size_t queries, PassResult* result) {
  const double n = static_cast<double>(events);
  auto& layers = result->layers;
  layers["event.decode_ns_per_event"] = tracer.total_ns(Layer::kDecode) / n;
  layers["query.compile_us_per_query"] =
      tracer.total_ns(Layer::kCompile) / 1e3 / static_cast<double>(queries);
  layers["engine.process_ns_per_event"] = tracer.self_ns(Layer::kEngine) / n;
  layers["engine.edge_evaluations"] =
      static_cast<double>(m.edge_evaluations);
  layers["engine.useful_edge_ratio"] =
      m.edge_evaluations == 0
          ? 0
          : static_cast<double>(m.runs_created + m.runs_extended) /
                static_cast<double>(m.edge_evaluations);
  layers["engine.fast_path_ratio"] =
      m.edge_evaluations == 0 ? 0
                              : static_cast<double>(m.fast_path_edges) /
                                    static_cast<double>(m.edge_evaluations);
  layers["engine.peak_runs"] = static_cast<double>(m.peak_runs);
  layers["shedding.probe_ns_per_event"] =
      tracer.total_ns(Layer::kShedProbe) / n;
  layers["shedding.hook_ns_per_event"] = tracer.total_ns(Layer::kShedHook) / n;
  const uint64_t episodes = tracer.count(Layer::kShedEpisode);
  layers["shedding.episode_us"] =
      episodes == 0 ? 0
                    : tracer.total_ns(Layer::kShedEpisode) / 1e3 /
                          static_cast<double>(episodes);
  layers["shedding.episodes"] = static_cast<double>(episodes);
  layers["shedding.runs_shed"] = static_cast<double>(m.runs_shed);

  const double timed_ns = result->timed_s * 1e9;
  result->shares["event"] = tracer.total_ns(Layer::kDecode) / timed_ns;
  result->shares["engine"] = tracer.self_ns(Layer::kEngine) / timed_ns;
  result->shares["shedding"] = (tracer.total_ns(Layer::kShedProbe) +
                                tracer.total_ns(Layer::kShedHook) +
                                tracer.total_ns(Layer::kShedEpisode)) /
                               timed_ns;
}

std::string Q1Text(int window_hours, int max_priority) {
  return cep::StrFormat(
      "PATTERN SEQ(submit s, schedule c, evict e) "
      "WHERE s.job_id = c.job_id, s.task_idx = c.task_idx, "
      "c.job_id = e.job_id, c.task_idx = e.task_idx, "
      "s.priority <= %d "
      "WITHIN %d hours "
      "RETURN churn(job = s.job_id, task = s.task_idx, "
      "machine = c.machine_id, priority = s.priority)",
      max_priority, window_hours);
}

std::string Q2Text(int window_hours, int max_priority) {
  const std::string bound =
      max_priority < 0 ? ""
                       : cep::StrFormat(", a.priority <= %d", max_priority);
  return cep::StrFormat(
      "PATTERN SEQ(schedule a, fail b, schedule c) "
      "WHERE a.job_id = b.job_id, a.task_idx = b.task_idx, "
      "b.job_id = c.job_id, b.task_idx = c.task_idx%s "
      "WITHIN %d hours "
      "RETURN flap(job = a.job_id, task = a.task_idx, "
      "machine_was = a.machine_id, machine_now = c.machine_id)",
      bound.c_str(), window_hours);
}

}  // namespace perfbench
