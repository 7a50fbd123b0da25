#ifndef CEPSHED_OBS_QUALITY_H_
#define CEPSHED_OBS_QUALITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/state_component.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace cep {
namespace obs {

/// \brief Online calibration of a shedder's completion-probability model.
///
/// Every run exit with a model prediction attached becomes one observation:
/// the shedder's contribution estimate C+(r|t), clamped to [0, 1], is the
/// predicted completion probability p; whether the run actually produced a
/// match on exit is the binary outcome o. Observations accumulate into
/// fixed-width prediction buckets (predicted-vs-observed completion rate per
/// bucket), a running Brier score sum((p - o)^2)/n, and a count-weighted
/// calibration drift sum(n_b * |avg_pred_b - avg_obs_b|)/n. Shed victims are
/// recorded separately — their outcome is unobservable (the run was removed
/// before resolving), so they contribute to the shed-prediction averages but
/// never to Brier/drift.
///
/// All inputs arrive from the engine's serial per-event pass in deterministic
/// run order, so state — and therefore every export — is byte-identical
/// across batch sizes and MultiEngine fan-out widths.
class CalibrationMonitor final : public ckpt::StateComponent {
 public:
  explicit CalibrationMonitor(size_t num_buckets = 10);

  /// A run with predicted completion probability `predicted` (clamped to
  /// [0, 1] by the caller) left R(t); `completed` is true when it produced a
  /// match at exit.
  void ObserveOutcome(double predicted, bool completed);

  /// A run with prediction `predicted` was shed (outcome unobservable).
  void ObserveShed(double predicted);

  uint64_t outcomes() const { return outcomes_; }
  uint64_t shed_observations() const { return shed_count_; }
  /// Mean squared error of the predictions over observed outcomes (0 when
  /// nothing was observed yet; perfect calibration and sharpness = 0).
  double BrierScore() const;
  /// Count-weighted mean |avg_pred - avg_obs| over the buckets: 0 for a
  /// perfectly calibrated model, approaching 1 for a maximally miscalibrated
  /// one.
  double Drift() const;
  /// Mean predicted completion probability of shed victims.
  double MeanShedPrediction() const;

  size_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_count(size_t b) const { return buckets_[b].count; }
  double bucket_predicted(size_t b) const;
  double bucket_observed(size_t b) const;

  /// Mirrors the calibration state into `registry` under `labels` plus a
  /// {"shedder": shedder_name} label on the per-shedder gauges.
  void Export(Registry* registry, const LabelSet& labels,
              const std::string& shedder_name) const;

  /// JSON object fragment (no surrounding braces' key): schema documented in
  /// docs/OBSERVABILITY.md and checked by tools/validate_obs `quality`.
  std::string ToJson() const;

  // StateComponent: bucket accumulators + totals.
  Status SerializeTo(ckpt::Sink& sink) const override;
  Status RestoreFrom(ckpt::Source& source) override;

 private:
  struct Bucket {
    uint64_t count = 0;
    double sum_predicted = 0.0;
    double sum_outcome = 0.0;
  };

  size_t BucketIndex(double predicted) const;

  std::vector<Bucket> buckets_;
  uint64_t outcomes_ = 0;
  double brier_sum_ = 0.0;
  uint64_t shed_count_ = 0;
  double shed_sum_predicted_ = 0.0;
};

/// \brief Multi-window θ burn-rate tracking over the latency monitor.
///
/// Each processed event contributes one boolean sample: was µ(t) above the
/// latency bound θ after the event? Violation bits are kept in a circular
/// window (deterministic event-count windows, not wall time), and the burn
/// rate over a window is (violating fraction) / budget_fraction — 1.0 means
/// the error budget is being consumed exactly at the sustainable rate,
/// above 1.0 the SLO will be exhausted early (the standard multi-window
/// burn-rate alerting model). Time-in-violation accumulates the busy
/// microseconds of violating events, so it is deterministic under the
/// virtual-cost latency modes.
class ThetaSloMonitor final : public ckpt::StateComponent {
 public:
  /// `windows` must be strictly increasing event counts; `budget_fraction`
  /// is the tolerated violating fraction (0.01 = 99% of events within θ).
  ThetaSloMonitor(std::vector<size_t> windows, double budget_fraction);

  /// One processed event: `violating` is µ(t) > θ after the event,
  /// `busy_micros` its processing cost.
  void Observe(bool violating, double busy_micros);

  uint64_t events() const { return events_; }
  uint64_t violating_events() const { return violating_events_; }
  double time_in_violation_us() const { return time_in_violation_us_; }
  uint64_t current_streak() const { return current_streak_; }
  uint64_t longest_streak() const { return longest_streak_; }
  size_t num_windows() const { return windows_.size(); }
  size_t window(size_t w) const { return windows_[w]; }
  /// Violating events inside window `w` (clamped to events seen so far).
  uint64_t window_violations(size_t w) const { return window_violations_[w]; }
  /// (violations / effective window) / budget_fraction.
  double BurnRate(size_t w) const;

  void Export(Registry* registry, const LabelSet& labels) const;
  std::string ToJson() const;

  // StateComponent: ring bits + counters.
  Status SerializeTo(ckpt::Sink& sink) const override;
  Status RestoreFrom(ckpt::Source& source) override;

 private:
  bool Bit(uint64_t event_index) const;
  void SetBit(uint64_t event_index, bool value);

  std::vector<size_t> windows_;  ///< increasing; last is the ring capacity
  double budget_fraction_;
  std::vector<uint64_t> ring_;   ///< windows_.back() violation bits
  std::vector<uint64_t> window_violations_;  ///< one running count per window
  uint64_t events_ = 0;
  uint64_t violating_events_ = 0;
  double time_in_violation_us_ = 0.0;
  uint64_t current_streak_ = 0;
  uint64_t longest_streak_ = 0;
};

/// Wilson score interval for a binomial proportion (successes/trials) at
/// z = 1.96 (~95%). `lower`/`upper` are clamped to [0, 1]; for trials == 0
/// the interval is [0, 1] and the center 0.
struct WilsonInterval {
  double center = 0.0;
  double lower = 0.0;
  double upper = 1.0;
};
WilsonInterval WilsonScore(uint64_t successes, uint64_t trials);

}  // namespace obs
}  // namespace cep

#endif  // CEPSHED_OBS_QUALITY_H_
