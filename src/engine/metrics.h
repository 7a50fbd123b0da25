#ifndef CEPSHED_ENGINE_METRICS_H_
#define CEPSHED_ENGINE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cep {

/// \brief Counters exposed by the engine after (or during) a run.
///
/// `edge_evaluations` is the engine's unit of work: one candidate event
/// checked against one run edge. The virtual-cost latency monitor converts it
/// into a deterministic latency proxy.
///
/// Every field MUST be listed in kEngineMetricFields (metrics.cc): the field
/// table drives ToString(), MultiEngine aggregation, and the observability
/// registry export, and a reflection test fails the build's test suite when
/// sizeof(EngineMetrics) disagrees with the table — add the field there and
/// everything else follows.
struct EngineMetrics {
  uint64_t events_processed = 0;
  uint64_t events_dropped = 0;   ///< input-based shedding only
  uint64_t runs_created = 0;     ///< new runs started at the initial state
  uint64_t runs_extended = 0;    ///< transitions producing a child run
  uint64_t runs_expired = 0;     ///< window expiry
  uint64_t runs_killed = 0;      ///< negation violations
  uint64_t runs_shed = 0;        ///< removed by load shedding
  /// Runs retired because they emitted at a plain final state (immediate
  /// completions at spawn/extension, in-place completions). Together with
  /// expired/killed/shed/aborted this closes the run-conservation ledger:
  /// Engine::VerifyInvariants checks
  ///   runs_created (+ runs_extended under skip-till-any-match)
  ///     == runs_completed + runs_expired + runs_killed + runs_shed
  ///        + runs_aborted + |R(t)|.
  uint64_t runs_completed = 0;
  /// Half-born runs discarded while recovering from a quarantined
  /// processing error (they were counted created/extended but never joined
  /// or already left R(t)).
  uint64_t runs_aborted = 0;
  uint64_t shed_triggers = 0;    ///< overload episodes
  uint64_t matches_emitted = 0;
  uint64_t edge_evaluations = 0;
  uint64_t peak_runs = 0;        ///< max |R(t)| observed
  double busy_micros = 0;        ///< total processing time (wall or virtual)

  // --- resilience (engine/degradation.h, options.h error budget) -----------
  uint64_t quarantined_events = 0;   ///< poisoned events skipped by the budget
  uint64_t degradation_ups = 0;      ///< ladder escalation steps
  uint64_t degradation_downs = 0;    ///< ladder recovery steps
  uint64_t bypassed_spawns = 0;      ///< events whose run births kBypass ate
  uint64_t emergency_input_drops = 0;  ///< events dropped at kEmergency+
  uint64_t peak_run_bytes = 0;       ///< max run-set byte estimate observed

  // --- ingestion (mirrored from an attached ReorderBuffer) -----------------
  uint64_t reorder_late_dropped = 0;  ///< events behind the watermark
  uint64_t reorder_buffered_peak = 0;  ///< max events held for reordering

  // --- run-set size / run arena --------------------------------------------
  /// Events that met |R(t)| >= 256. Kept for snapshot compatibility: the
  /// engine.metrics snapshot section carries it.
  uint64_t parallel_events = 0;
  /// Peak bytes reserved by the run arena's slot blocks (0 with pooling
  /// disabled); compare against peak_run_bytes to validate the degradation
  /// ladder's byte estimate.
  uint64_t arena_bytes_reserved = 0;

  // --- batched predicate evaluation (engine/batch_eval.h) ------------------
  /// Edge evaluations decided by the compiled fast path over the run store's
  /// flat columns (a subset of edge_evaluations; the rest went through the
  /// generic Expr interpreter).
  uint64_t fast_path_edges = 0;
  /// Hot run-side attribute columns the RunStore gathers for this query's
  /// compiled predicates (constant per engine; batch width of the SoA
  /// gather).
  uint64_t hot_attr_slots = 0;

  /// All fields, in declaration order: "name=value name=value ...".
  std::string ToString() const;

  /// Adds every field of `other` into this (field-table driven, so new
  /// fields aggregate automatically). Peak fields are summed too — an upper
  /// bound for concurrent engines; callers wanting a max can post-process.
  void Add(const EngineMetrics& other);
};

/// \brief Reflection entry for one EngineMetrics field. Exactly one of
/// `u64` / `f64` is non-null.
struct EngineMetricField {
  const char* name;  ///< struct field name, used in ToString()
  /// Fully qualified Prometheus family name (counters carry _total).
  const char* prom_name;
  const char* help;
  /// True for monotonically increasing totals; false for peaks/gauges.
  bool monotonic;
  uint64_t EngineMetrics::* u64;
  double EngineMetrics::* f64;
};

/// The field table: one entry per EngineMetrics field, declaration order.
/// `*count` receives the entry count.
const EngineMetricField* EngineMetricFields(size_t* count);

}  // namespace cep

#endif  // CEPSHED_ENGINE_METRICS_H_
