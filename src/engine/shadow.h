#ifndef CEPSHED_ENGINE_SHADOW_H_
#define CEPSHED_ENGINE_SHADOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/state_component.h"
#include "common/status.h"
#include "common/time.h"
#include "engine/options.h"
#include "event/event.h"
#include "nfa/nfa.h"
#include "obs/metrics.h"
#include "obs/quality.h"

namespace cep {

class Engine;

/// \brief Online recall estimation via a sampled, unshed ghost engine.
///
/// Event time is partitioned into fixed-width spans; a seeded hash selects
/// one span in `sample_every` for shadowing. While a sampled span is open,
/// every event the primary consumes is also fed to a ghost engine — a second
/// Engine over the same NFA with shedding, degradation, and checkpointing
/// disabled — so the ghost's matches inside the span are the unshed ground
/// truth. When the stream moves past the span, both match sets (fingerprint
/// multisets, restricted to matches fully contained in the span) are
/// compared: sum(min(primary, ghost)) over sum(ghost) across the retained
/// span window is a live recall estimate, with Wilson 95% bounds.
///
/// Determinism and non-interference contract:
///  - Span selection and bounds depend only on event timestamps and the
///    seed, never on batch size, fan-out width, wall clock, or shedding
///    activity, so the oracle's state and exports are byte-identical across
///    execution configurations.
///  - The oracle is driven strictly after the primary finishes an event
///    (outside its latency measurement) and never mutates primary state: a
///    ghost failure or run-set blow-up poisons the current span (counted in
///    spans_aborted) and the primary proceeds untouched.
///  - A known bias: the ghost is flushed at span close, which resolves
///    trailing-negation (deferred-final) runs optimistically, so for queries
///    ending in a negated component the estimate can slightly undercount
///    ghost truth. The bench suite uses queries without trailing negation.
class ShadowOracle final : public ckpt::StateComponent {
 public:
  /// `primary_options` are the (validated) options of the owning engine;
  /// the ghost derives a shed-free configuration from them that is
  /// independent of the primary's batch and arena settings.
  ShadowOracle(NfaPtr nfa, const EngineOptions& primary_options);
  ~ShadowOracle() override;

  ShadowOracle(const ShadowOracle&) = delete;
  ShadowOracle& operator=(const ShadowOracle&) = delete;

  /// A primary match was emitted. Buffered until the event that produced it
  /// is known to have been consumed successfully (OnEventConsumed), so a
  /// quarantined event leaves no trace here.
  void NotePrimaryMatch(uint64_t fingerprint, Timestamp first_ts,
                        Timestamp last_ts);

  /// Drops matches buffered by a failed (quarantined) primary event.
  void DiscardPending();

  /// The primary consumed `event` successfully: advance the span state
  /// machine, attribute buffered primary matches, and mirror the event into
  /// the ghost when a sampled span is open. Never fails the primary.
  void OnEventConsumed(const EventPtr& event);

  /// Closes a still-open span (flushing the ghost) so end-of-stream matches
  /// are scored. Call after the primary's Flush; idempotent.
  void Finish();

  /// Windowed recall estimate over the retained closed spans.
  obs::WilsonInterval WindowedRecall() const;
  /// Lifetime recall estimate over every closed span.
  obs::WilsonInterval LifetimeRecall() const;

  uint64_t spans_sampled() const { return spans_sampled_; }
  uint64_t spans_completed() const { return spans_completed_; }
  uint64_t spans_aborted() const { return spans_aborted_; }
  uint64_t events_mirrored() const { return events_mirrored_; }
  uint64_t ghost_matches_total() const { return ghost_total_; }
  uint64_t matched_total() const { return matched_total_; }
  /// Primary matches inside sampled spans with no ghost counterpart — a
  /// correctness alarm (the unshed oracle should dominate the shed primary).
  uint64_t unexpected_total() const { return unexpected_total_; }
  int64_t span_width() const { return span_width_; }

  /// Mirrors the oracle's state into `registry` under `labels`.
  void Export(obs::Registry* registry, const obs::LabelSet& labels) const;

  /// JSON object fragment; schema documented in docs/OBSERVABILITY.md and
  /// checked by tools/validate_obs `quality`.
  std::string ToJson() const;

  // StateComponent: totals, span ring, and — when a span is open — the
  // in-flight fingerprint buffers plus a nested ghost snapshot.
  Status SerializeTo(ckpt::Sink& sink) const override;
  Status RestoreFrom(ckpt::Source& source) override;

 private:
  enum class SpanState : uint8_t { kIdle = 0, kActive = 1, kPoisoned = 2 };

  struct SpanStat {
    uint64_t ghost = 0;    ///< ghost matches in the span
    uint64_t matched = 0;  ///< multiset intersection with primary matches
    uint64_t extra = 0;    ///< primary matches absent from the ghost
  };

  bool SpanSampled(int64_t span_id) const;
  void OpenSpan(int64_t span_id);
  void CloseSpan();
  void PoisonSpan();
  /// Creates the ghost engine (cold) with the derived options.
  Status MakeGhost();
  void RecordClosedSpan(const SpanStat& stat);

  NfaPtr nfa_;
  ShadowOptions options_;
  EngineOptions ghost_options_;
  int64_t span_width_ = 1;

  /// Sentinel for "no span visited yet": distinct from every real span id so
  /// the stream's first span (id 0 for non-negative timestamps) is eligible.
  static constexpr int64_t kNoSpan = INT64_MIN;

  SpanState state_ = SpanState::kIdle;
  int64_t span_id_ = kNoSpan;  ///< open span, or last span visited when idle
  Timestamp span_start_ = 0;
  Timestamp span_end_ = 0;
  Timestamp watermark_ = INT64_MIN;  ///< max event ts seen (regression guard)

  std::unique_ptr<Engine> ghost_;
  std::vector<uint64_t> primary_fps_;  ///< primary matches in the open span
  std::vector<uint64_t> ghost_fps_;    ///< ghost matches in the open span
  /// Matches from the event currently in flight (attributed or discarded
  /// once the event's fate is known).
  std::vector<std::pair<uint64_t, std::pair<Timestamp, Timestamp>>> pending_;

  std::vector<SpanStat> ring_;  ///< last `window_spans` closed spans
  size_t ring_pos_ = 0;
  size_t ring_size_ = 0;

  uint64_t spans_sampled_ = 0;
  uint64_t spans_completed_ = 0;
  uint64_t spans_aborted_ = 0;
  uint64_t events_mirrored_ = 0;
  uint64_t ghost_total_ = 0;
  uint64_t matched_total_ = 0;
  uint64_t unexpected_total_ = 0;
};

}  // namespace cep

#endif  // CEPSHED_ENGINE_SHADOW_H_
