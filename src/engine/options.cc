#include "engine/options.h"

#include "common/string_util.h"

namespace cep {

namespace {
Status Invalid(std::string msg) {
  return Status::InvalidArgument(std::move(msg));
}
}  // namespace

Result<EngineOptions> EngineOptions::Validated() const {
  if (batch_size == 0) {
    return Invalid("batch_size must be >= 1 (1 = event-at-a-time)");
  }
  if (latency_window_events == 0) {
    return Invalid("latency_window_events must be >= 1: µ(t) is a sliding "
                   "mean over at least one measurement");
  }
  if (latency_mode != LatencyMode::kWallClock && virtual_ns_per_op <= 0) {
    return Invalid("virtual_ns_per_op must be positive under kVirtualCost / "
                   "kQueueSimulation: it is the service time of one edge "
                   "evaluation");
  }
  if (latency_mode == LatencyMode::kQueueSimulation &&
      queue_time_compression <= 0) {
    return Invalid("queue_time_compression must be positive: it maps stream "
                   "time onto the arrival clock");
  }
  if (shed_amount.fraction <= 0 || shed_amount.fraction > 1) {
    return Invalid(StrFormat(
        "shed_amount.fraction must be in (0, 1], got %g: it is the share of "
        "R(t) dropped per trigger",
        shed_amount.fraction));
  }
  if (shed_amount.mode == ShedAmountOptions::Mode::kAdaptive &&
      (shed_amount.max_fraction <= 0 || shed_amount.max_fraction > 1)) {
    return Invalid(StrFormat(
        "shed_amount.max_fraction must be in (0, 1], got %g",
        shed_amount.max_fraction));
  }
  if (degradation.enabled) {
    if (!(degradation.shedding_enter_ratio < degradation.emergency_enter_ratio &&
          degradation.emergency_enter_ratio < degradation.bypass_enter_ratio)) {
      return Invalid(StrFormat(
          "degradation enter ratios must be strictly increasing "
          "(shedding %g < emergency %g < bypass %g)",
          degradation.shedding_enter_ratio, degradation.emergency_enter_ratio,
          degradation.bypass_enter_ratio));
    }
    if (degradation.hysteresis <= 0 || degradation.hysteresis > 1) {
      return Invalid(StrFormat(
          "degradation.hysteresis must be in (0, 1], got %g: de-escalation "
          "must require a ratio at or below the entry threshold",
          degradation.hysteresis));
    }
  }
  if (checkpoint.enabled() && checkpoint.interval_events == 0) {
    return Invalid("checkpoint.interval_events must be >= 1 when a checkpoint "
                   "directory is set");
  }
  if (quality.shadow.enabled()) {
    if (quality.shadow.span_width < 0) {
      return Invalid(StrFormat(
          "quality.shadow.span_width must be >= 0 (0 = derive from the query "
          "window), got %lld",
          static_cast<long long>(quality.shadow.span_width)));
    }
    if (quality.shadow.max_ghost_runs == 0) {
      return Invalid("quality.shadow.max_ghost_runs must be >= 1: the ghost "
                     "engine needs room for at least one run");
    }
    if (quality.shadow.window_spans == 0) {
      return Invalid("quality.shadow.window_spans must be >= 1: the recall "
                     "estimate needs at least one closed span");
    }
  }
  if (quality.calibration.enabled &&
      (quality.calibration.num_buckets == 0 ||
       quality.calibration.num_buckets > 1000)) {
    return Invalid(StrFormat(
        "quality.calibration.num_buckets must be in [1, 1000], got %llu",
        static_cast<unsigned long long>(quality.calibration.num_buckets)));
  }
  if (quality.slo.enabled) {
    if (quality.slo.budget_fraction <= 0 || quality.slo.budget_fraction > 1) {
      return Invalid(StrFormat(
          "quality.slo.budget_fraction must be in (0, 1], got %g",
          quality.slo.budget_fraction));
    }
    if (quality.slo.windows.empty()) {
      return Invalid("quality.slo.windows must name at least one window");
    }
    size_t prev = 0;
    for (size_t w : quality.slo.windows) {
      if (w <= prev) {
        return Invalid("quality.slo.windows must be strictly increasing "
                       "event counts >= 1");
      }
      prev = w;
    }
    if (quality.slo.windows.back() > (size_t{1} << 24)) {
      return Invalid(StrFormat(
          "quality.slo.windows.back() (%llu) exceeds the ring cap (2^24 "
          "events): the violation ring is kept in memory",
          static_cast<unsigned long long>(quality.slo.windows.back())));
    }
  }
  if (!checkpoint.restore_from.empty() && checkpoint.fault_injection_active) {
    return Invalid(
        "restore-from cannot be combined with fault injection: the injected "
        "fault schedule is positional, so a resumed run would see a "
        "different storm than the uninterrupted one — exactly-once replay "
        "is impossible");
  }
  return *this;
}

}  // namespace cep
