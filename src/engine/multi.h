#ifndef CEPSHED_ENGINE_MULTI_H_
#define CEPSHED_ENGINE_MULTI_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/state_component.h"
#include "common/parallel.h"
#include "common/result.h"
#include "engine/engine.h"
#include "opt/ir.h"
#include "opt/pass_manager.h"

namespace cep {

/// \brief Evaluates several queries over one input stream.
///
/// Each query keeps its own Engine (own run set, own shedder, own overload
/// detection — a slow query must not starve a fast one of its threshold).
/// MultiEngine fans events out, aggregates metrics, and exposes per-query
/// results. Pattern sharing across queries (paper §VI / [16]) is future
/// work; this is the operational composition layer.
///
/// EnableParallel(threads) runs independent engines concurrently on one
/// worker pool with a barrier per event (or per batch): engines
/// share no mutable state, and each engine's own processing stays serial
/// and deterministic, so per-engine matches and metrics are identical to
/// serial fan-out. Match callbacks then fire concurrently across engines
/// (never concurrently within one engine) and must be thread-safe if they
/// touch shared state. On an error, serial fan-out stops at the first
/// failing engine while parallel fan-out completes the event on all
/// engines before reporting the lowest-indexed failure.
class MultiEngine {
 public:
  // Both out-of-line: OptStateComponent is incomplete here.
  MultiEngine();
  ~MultiEngine();
  MultiEngine(const MultiEngine&) = delete;
  MultiEngine& operator=(const MultiEngine&) = delete;

  /// Adds a query; returns its index. `name` defaults to the query's name.
  size_t AddQuery(NfaPtr nfa, EngineOptions options,
                  ShedderPtr shedder = nullptr, std::string name = "");

  size_t num_queries() const { return names_.size(); }
  /// The engine servicing query `index`. Before Optimize() every query has
  /// its own engine; afterwards merged queries share their group leader's,
  /// so `engine(i)` and `engine(j)` may be the same object.
  Engine& engine(size_t index) { return *engines_[query_to_engine_[index]]; }
  const Engine& engine(size_t index) const {
    return *engines_[query_to_engine_[index]];
  }
  const std::string& query_name(size_t index) const { return names_[index]; }

  /// Physical engines actually processing events (== num_queries() until
  /// Optimize() merges identical queries).
  size_t num_engines() const { return engines_.size(); }
  Engine& physical_engine(size_t k) { return *engines_[k]; }
  const Engine& physical_engine(size_t k) const { return *engines_[k]; }

  // --- multi-query optimizer (src/opt/, docs/OPTIMIZER.md) ------------------

  /// Runs the optimizer pass pipeline (DSE -> CSE -> prefix merge ->
  /// pushdown) over all registered queries and rebuilds the physical
  /// engines around the rewritten automata: merged queries share one
  /// engine, interned predicates are evaluated once per event for all
  /// queries, and events provably inert for every query are skipped.
  /// Per-query matches are byte-identical to the unoptimized fan-out
  /// (enforced by stress_engine --multiquery). Must be called at most once,
  /// after all AddQuery calls and before any event is processed.
  Status Optimize(const opt::OptOptions& options = {});

  bool optimized() const { return optimized_; }
  /// Optimized IR (null until Optimize); stats, shared table, prefilter.
  const opt::MultiQueryIr* ir() const { return ir_.get(); }
  /// Per-pass before/after IR dumps (empty unless OptOptions::dump_ir).
  const std::vector<opt::PassDump>& opt_dumps() const { return dumps_; }
  /// Events counted as globally droppable by the ingestion prefilter.
  uint64_t events_prefiltered() const { return opt_events_prefiltered_; }
  /// The optimizer's durable state as checkpoint components ("opt.state").
  const ckpt::ComponentRegistry& opt_components();

  /// Creates the fan-out worker pool (total width `threads`; 0 or 1 reverts
  /// to serial fan-out). Per event (or per batch) the engines run
  /// concurrently, one engine per pool lane at a time; each engine's own
  /// evaluation stays a serial pass over its run set.
  void EnableParallel(size_t threads);

  /// Feeds `event` to every engine. Stops at the first error (serial) or
  /// reports the first engine's error after the barrier (parallel).
  Status ProcessEvent(const EventPtr& event);

  /// Feeds `event` through every engine's error budget (Engine::OfferEvent):
  /// engines with poison tolerance enabled quarantine their failures
  /// independently, so one query's poisoned predicate cannot stall the
  /// others. Stops only on a fatal (budget-exhausted or fail-fast) error.
  Status OfferEvent(const EventPtr& event);

  /// Feeds a batch through every engine with one barrier per batch instead
  /// of per event (engines are independent, so batch-at-a-time and
  /// event-at-a-time fan-out produce identical per-engine results).
  Status ProcessBatch(std::span<const EventPtr> events);

  /// Drains a stream through every engine via OfferEvent; `batch_size` > 1
  /// pulls events in batches (ProcessBatch).
  Status ProcessStream(EventStream* stream, size_t batch_size = 1);

  /// Sum of all engines' counters.
  EngineMetrics AggregateMetrics() const;

  /// Total active partial matches across queries.
  size_t TotalRuns() const;

  // --- checkpoint / restore -------------------------------------------------

  /// Serializes all engines into one outer snapshot: section "query.<i>"
  /// holds engine i's complete (self-validating) inner snapshot. The outer
  /// stream offset mirrors engine 0's, since every engine consumes the same
  /// stream. Note: when an audit log is shared, each engine section carries
  /// its own copy of the log; restore rewrites the same content per engine,
  /// which is redundant but correct.
  Result<std::string> SerializeSnapshot();

  /// Restores every engine from its "query.<i>" section. Fails with a
  /// configuration-mismatch error when the snapshot's query count differs
  /// from this MultiEngine's.
  Status RestoreFromSnapshot(std::string_view bytes);

  /// Restores from a snapshot file, or from the newest valid snapshot when
  /// `path` is a directory.
  Status RestoreFromFile(const std::string& path);

  /// Events consumed by the fan-out (engine 0's stream position; all
  /// engines advance in lockstep). 0 when no queries are registered.
  uint64_t stream_offset() const;

  // --- observability --------------------------------------------------------

  /// Shares one audit log across all engines (current and future): every
  /// record carries the originating engine's id (its query index).
  void AttachAuditLog(obs::ShedAuditLog* log);

  /// Shares one tracer across all engines; each engine's spans occupy its
  /// own lane block (tid = engine id * 4 + phase).
  void AttachTracer(obs::Tracer* tracer);

  /// Mirrors every engine's metrics into `registry`, labelled
  /// {"query": <unique label>}, plus the unlabelled aggregate and — when
  /// optimized — the cep_opt_* family. Queries sharing a name get a stable
  /// "#<query-index>" suffix so exported metric families never collide.
  void ExportMetrics(obs::Registry* registry) const;

 private:
  class OptStateComponent;

  /// Runs `fn(engine_index)` over all engines — on the pool when parallel
  /// fan-out is enabled — and returns the lowest-indexed error.
  template <typename Fn>
  Status ForEachEngine(Fn&& fn);

  /// Evaluates the shared-predicate rows for the event(s) about to fan out
  /// (serial, so engines read them concurrently) and counts prefilterable
  /// events. No-op unless optimized.
  void PrepareEvent(const EventPtr& event);
  void PrepareBatch(std::span<const EventPtr> events);

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::string> names_;
  /// Query index -> physical engine index (identity until Optimize merges).
  std::vector<size_t> query_to_engine_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Status> statuses_;  // per-engine results of the current round
  obs::ShedAuditLog* audit_log_ = nullptr;  // shared; applied to new engines
  obs::Tracer* tracer_ = nullptr;

  // --- optimizer state -------------------------------------------------------
  bool optimized_ = false;
  /// Owns the rewritten automata, shared-predicate table, and prefilter;
  /// must outlive the engines (their edges point into its expressions).
  std::unique_ptr<opt::MultiQueryIr> ir_;
  std::vector<opt::PassDump> dumps_;
  /// Digest of the optimized layout (unit fingerprints + merge mapping):
  /// snapshots embed it, so restore refuses a differently-optimized writer.
  uint64_t opt_digest_ = 0;
  uint64_t opt_events_prefiltered_ = 0;
  std::unique_ptr<OptStateComponent> opt_component_;
  ckpt::ComponentRegistry opt_components_;
};

}  // namespace cep

#endif  // CEPSHED_ENGINE_MULTI_H_
