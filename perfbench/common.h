// Shared pieces of the perfbench driver: the pass result every workload
// returns, the span tracer, the forwarding shedder that times a strategy's
// calls, and small statistics and memory helpers.
#ifndef CEPSHED_PERFBENCH_COMMON_H_
#define CEPSHED_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/engine.h"
#include "event/csv.h"
#include "event/schema.h"
#include "shedding/shedder.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-up failures are fatal: the run exits non-zero and prints no result.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

inline void Check(const cep::Status& status, const std::string& context) {
  if (!status.ok()) Die(context + ": " + status.ToString());
}

template <typename T>
T Take(cep::Result<T> result, const std::string& context) {
  if (!result.ok()) Die(context + ": " + result.status().ToString());
  return result.MoveValueUnsafe();
}

/// The layers a traced pass puts spans around. Each span wraps one call
/// into the module's public functions.
enum class Layer : int {
  kDecode,       // EventFromCsvLine
  kCompile,      // ParseQuery + Analyze + CompileToNfa
  kOptimize,     // MultiEngine::Optimize
  kEngine,       // Engine/MultiEngine::ProcessEvent, Engine::OfferEvent
  kShedProbe,    // Shedder::Decide on an arriving event
  kShedHook,     // Shedder::On* learning hooks
  kShedEpisode,  // Shedder::Decide in an overload episode
  kSnapshot,     // TenantSession::Checkpoint
  kSerialize,    // Engine::SerializeSnapshot
  kIngest,       // TenantSession::IngestLine
  kFrame,        // FrameReader::Next
  kCount,
};

/// \brief In-memory span recorder. Spans nest; closing one charges its
/// duration to its layer's total and to its parent's child time, so a
/// layer's self time is its total minus the time its child spans cover.
/// Spans are aggregated per layer as they close rather than stored, since a
/// shedding pass opens tens of millions of them.
class Tracer {
 public:
  void Begin(Layer layer) { stack_.push_back({layer, NowNs(), 0}); }

  void End() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const int64_t duration = NowNs() - frame.start_ns;
    const int i = static_cast<int>(frame.layer);
    total_ns_[i] += duration;
    self_ns_[i] += duration - frame.child_ns;
    ++count_[i];
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  double total_ns(Layer layer) const {
    return static_cast<double>(total_ns_[static_cast<int>(layer)]);
  }
  double self_ns(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<int>(layer)]);
  }
  uint64_t count(Layer layer) const {
    return count_[static_cast<int>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  int64_t total_ns_[static_cast<int>(Layer::kCount)] = {};
  int64_t self_ns_[static_cast<int>(Layer::kCount)] = {};
  uint64_t count_[static_cast<int>(Layer::kCount)] = {};
};

/// Scoped span; a no-op when `tracer` is null (untraced passes).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// \brief Forwards every call to the wrapped strategy inside a span.
/// name() and the checkpoint methods forward too, so the engine registers
/// the same "shedder.<name>" state component and snapshots are unchanged.
class TracingShedder : public cep::Shedder {
 public:
  TracingShedder(cep::ShedderPtr inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void Attach(const cep::Nfa& nfa) override { inner_->Attach(nfa); }

  void OnRunCreated(cep::Run* run, const cep::Event& event,
                    cep::Timestamp now) override {
    Span span(tracer_, Layer::kShedHook);
    inner_->OnRunCreated(run, event, now);
  }
  void OnRunExtended(const cep::Run* parent, cep::Run* child,
                     const cep::Event& event, cep::Timestamp now) override {
    Span span(tracer_, Layer::kShedHook);
    inner_->OnRunExtended(parent, child, event, now);
  }
  void OnMatchEmitted(const cep::Run& run, cep::Timestamp now) override {
    Span span(tracer_, Layer::kShedHook);
    inner_->OnMatchEmitted(run, now);
  }
  void OnRunExpired(const cep::Run& run, cep::Timestamp now) override {
    Span span(tracer_, Layer::kShedHook);
    inner_->OnRunExpired(run, now);
  }

  cep::ShedDecision Decide(const cep::ShedContext& ctx) override {
    Span span(tracer_,
              ctx.event != nullptr ? Layer::kShedProbe : Layer::kShedEpisode);
    return inner_->Decide(ctx);
  }
  bool DescribeVictim(const cep::Run& run, cep::Timestamp now,
                      cep::ShedVictimScores* scores) const override {
    return inner_->DescribeVictim(run, now, scores);
  }

  cep::Status SerializeTo(cep::ckpt::Sink& sink) const override {
    return inner_->SerializeTo(sink);
  }
  cep::Status RestoreFrom(cep::ckpt::Source& source) override {
    return inner_->RestoreFrom(source);
  }
  uint64_t Digest() const override { return inner_->Digest(); }

 private:
  cep::ShedderPtr inner_;
  Tracer* tracer_;
};

/// Wraps `shedder` for a traced pass; returns it unchanged otherwise.
inline cep::ShedderPtr MaybeTrace(cep::ShedderPtr shedder, Tracer* tracer) {
  if (tracer == nullptr || shedder == nullptr) return shedder;
  return std::make_unique<TracingShedder>(std::move(shedder), tracer);
}

/// What one pass over a workload's input measured and checked.
struct PassResult {
  bool traced = false;
  uint64_t events = 0;
  double timed_s = 0;                // the timed section
  std::vector<double> latency_us;    // one sample per event or batch
  std::vector<double> setup_s;       // every set-up timed in this pass
  double peak_rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double recall = 1;
  double precision = 1;
  /// Counts that must repeat exactly on every pass and run of one seed.
  std::map<std::string, double> counts;
  /// Per-layer metrics (traced passes only).
  std::map<std::string, double> layers;
  /// Share of the traced timed section spent in each module (traced passes
  /// only).
  std::map<std::string, double> shares;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual PassResult RunPass(bool traced) = 0;
};

/// Settings shared by every workload.
struct Env {
  uint64_t seed = 1;
  bool trace = false;         // a traced run (alternates pass kinds)
  std::string server_binary;  // absolute path to cepshed_server
};

std::unique_ptr<Workload> MakeClusterExact(const Env& env);
std::unique_ptr<Workload> MakeStockShed(const Env& env);
std::unique_ptr<Workload> MakeServerCkpt(const Env& env);

// --- statistics ---------------------------------------------------------

/// Nearest-rank quantile, q in [0, 1].
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::min<double>(static_cast<double>(values.size() - 1),
                       q * static_cast<double>(values.size())));
  return values[rank];
}

inline double Median(const std::vector<double>& values) {
  if (values.empty()) return 0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

// --- memory ---------------------------------------------------------------

/// A numeric field of /proc/<pid>/status ("self" for this process), such as
/// `VmHWM:` in KiB or `Threads:`.
double ProcStatusField(const std::string& pid, const char* field);

/// Reserves room for `n` items and writes to all of it, so that filling the
/// vector later neither allocates nor faults in pages. Done before
/// ResetPeakRss, it keeps the driver's own buffers out of the peak.
template <typename T>
void ReserveTouched(std::vector<T>* items, size_t n) {
  items->assign(n, T());
  items->clear();
}

/// Returns freed heap to the kernel and resets this process's VmHWM to its
/// current RSS, so the next read of its `VmHWM:` gives the peak reached
/// after this call. Returns that baseline RSS in MiB.
double ResetPeakRss();

// --- matching against a reference ------------------------------------------

/// Multiset comparison of `found` against `expected`: how many found items
/// appear in expected (with multiplicity).
template <typename T>
uint64_t CommonCount(std::vector<T> found, std::vector<T> expected) {
  std::sort(found.begin(), found.end());
  std::sort(expected.begin(), expected.end());
  uint64_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < found.size() && j < expected.size()) {
    if (found[i] < expected[j]) {
      ++i;
    } else if (expected[j] < found[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

/// Mismatches between an output and the sequence it must equal exactly:
/// 0 when equal, else the items missing plus the items extra (at least 1).
template <typename T>
uint64_t Mismatches(const std::vector<T>& found,
                    const std::vector<T>& expected) {
  if (found == expected) return 0;
  const uint64_t common = CommonCount(found, expected);
  return std::max<uint64_t>(1, found.size() + expected.size() - 2 * common);
}

/// Recall and precision of `found` against `golden` (multisets).
inline std::pair<double, double> RecallPrecision(uint64_t common,
                                                 uint64_t found,
                                                 uint64_t golden) {
  const double recall =
      golden == 0 ? 1.0
                  : static_cast<double>(common) / static_cast<double>(golden);
  const double precision =
      found == 0 ? 1.0
                 : static_cast<double>(common) / static_cast<double>(found);
  return {recall, precision};
}

// --- shared replay helpers ------------------------------------------------

/// ParseQuery + Analyze + CompileToNfa inside one compile span.
cep::NfaPtr CompileQuery(const std::string& text,
                         const cep::SchemaRegistry& registry, Tracer* tracer);

/// The paper's cluster queries: Q1 (SUBMIT -> SCHEDULE -> EVICT of one
/// task, s.priority <= `max_priority`) and Q2 (SCHEDULE -> FAIL -> SCHEDULE
/// of one task, a.priority <= `max_priority` unless negative).
std::string Q1Text(int window_hours, int max_priority);
std::string Q2Text(int window_hours, int max_priority);

/// One CSV record per event (the interchange format every workload decodes).
std::vector<std::string> RenderCsv(const std::vector<cep::EventPtr>& events);

/// Decodes every record, sequence numbers 1..n (set-up paths only).
std::vector<cep::EventPtr> DecodeAll(const cep::SchemaRegistry& registry,
                                     const std::vector<std::string>& lines);

/// Match fingerprints in emission order, from an engine that retains its
/// matches.
std::vector<uint64_t> Fingerprints(const cep::Engine& engine);

/// A match callback appending each fingerprint to `out`. The in-process
/// workloads consume matches as they are emitted, like a downstream
/// operator, instead of having the engine retain them.
inline cep::Engine::MatchCallback AppendFingerprint(
    std::vector<uint64_t>* out) {
  return [out](const cep::Match& match) { out->push_back(match.fingerprint); };
}

/// Bytes of the engine's live run set, by Run::ApproxBytes.
size_t LiveRunBytes(const cep::Engine& engine);

/// Per-layer metrics every engine-driving traced pass derives from its
/// spans and the engines' summed counters.
void EngineLayers(const Tracer& tracer, const cep::EngineMetrics& m,
                  uint64_t events, size_t queries, PassResult* result);

/// The timed section of the in-process replays: decode each CSV record and
/// hand the event to `process`, one latency sample per event. A traced pass
/// also tracks the peak live run-set bytes of `engines`, outside the timed
/// section.
template <typename Process>
void FeedLines(const cep::SchemaRegistry& registry,
               const std::vector<std::string>& lines, Tracer* tracer,
               const std::vector<const cep::Engine*>& engines,
               Process&& process, PassResult* result) {
  result->latency_us.reserve(lines.size());
  int64_t bookkeeping_ns = 0;
  size_t peak_run_bytes = 0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < lines.size(); ++i) {
    const int64_t t0 = NowNs();
    cep::Result<cep::EventPtr> event = [&] {
      Span span(tracer, Layer::kDecode);
      return cep::EventFromCsvLine(registry, lines[i], i + 1);
    }();
    bool ok = event.ok();
    if (ok) {
      Span span(tracer, Layer::kEngine);
      ok = process(event.ValueOrDie()).ok();
    }
    const int64_t t1 = NowNs();
    result->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (!ok) ++result->failed;
    if (tracer != nullptr) {
      size_t bytes = 0;
      for (const cep::Engine* engine : engines) bytes += LiveRunBytes(*engine);
      peak_run_bytes = std::max(peak_run_bytes, bytes);
      bookkeeping_ns += NowNs() - t1;
    }
  }
  result->timed_s =
      static_cast<double>(NowNs() - start - bookkeeping_ns) / 1e9;
  result->events = lines.size();
  result->attempted += lines.size();
  if (tracer != nullptr) {
    result->layers["engine.peak_run_bytes"] =
        static_cast<double>(peak_run_bytes);
  }
}

}  // namespace perfbench

#endif  // CEPSHED_PERFBENCH_COMMON_H_
