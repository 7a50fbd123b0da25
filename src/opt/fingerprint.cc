#include "opt/fingerprint.h"

#include "common/hash.h"

namespace cep {
namespace opt {

namespace {

uint64_t Bits(double d) {
  uint64_t out;
  static_assert(sizeof(out) == sizeof(d));
  __builtin_memcpy(&out, &d, sizeof(out));
  return out;
}

}  // namespace

uint64_t FingerprintEngineOptions(const EngineOptions& o) {
  uint64_t h = 0x0c1e0b75;  // arbitrary non-zero seed
  const auto add = [&h](uint64_t v) { h = HashCombine(h, v); };
  add(static_cast<uint64_t>(o.selection));
  add(static_cast<uint64_t>(o.latency_mode));
  add(Bits(o.latency_threshold_micros));
  add(Bits(o.virtual_ns_per_op));
  add(Bits(o.queue_time_compression));
  add(o.latency_window_events);
  add(o.shed_cooldown_events);
  add(static_cast<uint64_t>(o.shed_amount.mode));
  add(Bits(o.shed_amount.fraction));
  add(Bits(o.shed_amount.adaptive_gain));
  add(Bits(o.shed_amount.max_fraction));
  add(o.shed_amount.min_victims);
  add(o.max_runs);
  add(o.collect_matches ? 1 : 0);
  add(o.degradation.enabled ? 1 : 0);
  add(Bits(o.degradation.shedding_enter_ratio));
  add(Bits(o.degradation.emergency_enter_ratio));
  add(Bits(o.degradation.bypass_enter_ratio));
  add(Bits(o.degradation.hysteresis));
  add(o.degradation.cooldown_events);
  add(o.degradation.run_bytes_budget);
  add(o.degradation.error_streak_bypass);
  add(Bits(o.degradation.emergency_drop_probability));
  add(o.degradation.seed);
  add(o.error_budget.enabled ? 1 : 0);
  add(o.error_budget.max_consecutive_errors);
  // arena_block_runs, batch_size, and checkpoint.* are deliberately
  // excluded: results are identical across arena, batch, and
  // checkpoint-cadence settings, so they must not affect merge eligibility
  // or the snapshot-embedded optimizer digest.
  add(o.quality.shadow.sample_every);
  add(static_cast<uint64_t>(o.quality.shadow.span_width));
  add(o.quality.shadow.seed);
  add(o.quality.shadow.max_ghost_runs);
  add(o.quality.shadow.window_spans);
  add(o.quality.calibration.enabled ? 1 : 0);
  add(o.quality.calibration.num_buckets);
  add(o.quality.slo.enabled ? 1 : 0);
  add(Bits(o.quality.slo.budget_fraction));
  for (const size_t w : o.quality.slo.windows) add(w);
  return h;
}

}  // namespace opt
}  // namespace cep
