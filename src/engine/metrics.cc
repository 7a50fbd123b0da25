#include "engine/metrics.h"

#include "common/string_util.h"

namespace cep {

namespace {

#define CEP_METRIC_U64(field, prom, monotonic, help) \
  {#field, prom, help, monotonic, &EngineMetrics::field, nullptr}
#define CEP_METRIC_F64(field, prom, monotonic, help) \
  {#field, prom, help, monotonic, nullptr, &EngineMetrics::field}

/// One entry per EngineMetrics field, in declaration order. The reflection
/// test (metrics_reflection_test.cc) fails when sizeof(EngineMetrics)
/// disagrees with this table, so a new field cannot silently skip
/// serialization, aggregation, or registry export.
constexpr EngineMetricField kEngineMetricFields[] = {
    CEP_METRIC_U64(events_processed, "cep_events_processed_total", true,
                   "Events fully processed by the engine"),
    CEP_METRIC_U64(events_dropped, "cep_events_dropped_total", true,
                   "Events discarded before processing (input shedding)"),
    CEP_METRIC_U64(runs_created, "cep_runs_created_total", true,
                   "Runs started at the initial NFA state"),
    CEP_METRIC_U64(runs_extended, "cep_runs_extended_total", true,
                   "Transitions that produced or advanced a run"),
    CEP_METRIC_U64(runs_expired, "cep_runs_expired_total", true,
                   "Runs removed by window expiry"),
    CEP_METRIC_U64(runs_killed, "cep_runs_killed_total", true,
                   "Runs removed by negation or strict contiguity"),
    CEP_METRIC_U64(runs_shed, "cep_runs_shed_total", true,
                   "Partial matches removed by load shedding"),
    CEP_METRIC_U64(runs_completed, "cep_runs_completed_total", true,
                   "Runs retired by emitting at a plain final state"),
    CEP_METRIC_U64(runs_aborted, "cep_runs_aborted_total", true,
                   "Half-born runs discarded by quarantined-error recovery"),
    CEP_METRIC_U64(shed_triggers, "cep_shed_triggers_total", true,
                   "Overload episodes that invoked the shedder"),
    CEP_METRIC_U64(matches_emitted, "cep_matches_emitted_total", true,
                   "Complete matches emitted"),
    CEP_METRIC_U64(edge_evaluations, "cep_edge_evaluations_total", true,
                   "Candidate event x run edge predicate evaluations"),
    CEP_METRIC_U64(peak_runs, "cep_peak_runs", false,
                   "Maximum |R(t)| observed"),
    CEP_METRIC_F64(busy_micros, "cep_busy_micros", true,
                   "Total processing time, wall or virtual microseconds"),
    CEP_METRIC_U64(quarantined_events, "cep_quarantined_events_total", true,
                   "Poisoned events skipped by the error budget"),
    CEP_METRIC_U64(degradation_ups, "cep_degradation_ups_total", true,
                   "Degradation ladder escalation steps"),
    CEP_METRIC_U64(degradation_downs, "cep_degradation_downs_total", true,
                   "Degradation ladder recovery steps"),
    CEP_METRIC_U64(bypassed_spawns, "cep_bypassed_spawns_total", true,
                   "Events whose run births kBypass suppressed"),
    CEP_METRIC_U64(emergency_input_drops, "cep_emergency_input_drops_total",
                   true, "Events dropped at kEmergency or above"),
    CEP_METRIC_U64(peak_run_bytes, "cep_peak_run_bytes", false,
                   "Maximum run-set byte estimate observed"),
    CEP_METRIC_U64(reorder_late_dropped, "cep_reorder_late_dropped_total",
                   true, "Events behind the reorder-buffer watermark"),
    CEP_METRIC_U64(reorder_buffered_peak, "cep_reorder_buffered_peak", false,
                   "Maximum events held for reordering"),
    CEP_METRIC_U64(parallel_events, "cep_parallel_events_total", true,
                   "Events with |R(t)| >= 256, kept for snapshot "
                   "compatibility"),
    CEP_METRIC_U64(arena_bytes_reserved, "cep_arena_bytes_reserved", false,
                   "Peak bytes reserved by the run arena"),
    CEP_METRIC_U64(fast_path_edges, "cep_fast_path_edges_total", true,
                   "Edge evaluations decided by the compiled fast path"),
    CEP_METRIC_U64(hot_attr_slots, "cep_hot_attr_slots", false,
                   "Hot attribute columns gathered for batched evaluation"),
};

#undef CEP_METRIC_U64
#undef CEP_METRIC_F64

}  // namespace

const EngineMetricField* EngineMetricFields(size_t* count) {
  *count = sizeof(kEngineMetricFields) / sizeof(kEngineMetricFields[0]);
  return kEngineMetricFields;
}

std::string EngineMetrics::ToString() const {
  std::string out;
  size_t count = 0;
  const EngineMetricField* fields = EngineMetricFields(&count);
  for (size_t i = 0; i < count; ++i) {
    const EngineMetricField& field = fields[i];
    if (!out.empty()) out += ' ';
    if (field.u64 != nullptr) {
      out += StrFormat("%s=%llu", field.name,
                       static_cast<unsigned long long>(this->*field.u64));
    } else {
      out += StrFormat("%s=%.1f", field.name, this->*field.f64);
    }
  }
  return out;
}

void EngineMetrics::Add(const EngineMetrics& other) {
  size_t count = 0;
  const EngineMetricField* fields = EngineMetricFields(&count);
  for (size_t i = 0; i < count; ++i) {
    const EngineMetricField& field = fields[i];
    if (field.u64 != nullptr) {
      this->*field.u64 += other.*field.u64;
    } else {
      this->*field.f64 += other.*field.f64;
    }
  }
}

}  // namespace cep
