#ifndef CEPSHED_ENGINE_OPTIONS_H_
#define CEPSHED_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace cep {

/// SASE event selection strategies (which events a partial match may skip).
enum class SelectionStrategy : uint8_t {
  /// Branch on every applicable transition; the original run survives.
  /// Produces all matches and the exponential R(t) of the paper (default).
  kSkipTillAnyMatch,
  /// Greedily apply the first applicable transition in place; at most one
  /// match per started run.
  kSkipTillNextMatch,
  /// Like skip-till-next-match, but any relevant event that does not advance
  /// the run kills it.
  kStrictContiguity,
};

const char* SelectionStrategyName(SelectionStrategy strategy);

/// How the latency µ(t) driving overload detection is measured.
enum class LatencyMode : uint8_t {
  /// Deterministic proxy: edge evaluations × ns_per_op (reproducible).
  kVirtualCost,
  /// Real wall-clock per-event processing time.
  kWallClock,
  /// Deterministic single-server queueing simulation: µ(t) includes the
  /// time events spend queued behind earlier ones (the paper's detection
  /// latency). See QueueingLatencyMonitor.
  kQueueSimulation,
};

/// How many partial matches to drop per overload episode.
struct ShedAmountOptions {
  enum class Mode : uint8_t {
    kFixedFraction,  ///< the paper's setting: a fixed share of R(t)
    kAdaptive,       ///< share scaled by the overload ratio µ(t)/θ (§VI)
  };
  Mode mode = Mode::kFixedFraction;
  /// Fraction of R(t) shed per trigger (paper Table II uses 0.20).
  double fraction = 0.20;
  /// kAdaptive: shed fraction = min(max_fraction, fraction·(µ/θ - 1)·gain).
  double adaptive_gain = 1.0;
  double max_fraction = 0.8;
  size_t min_victims = 1;
};

/// Overload-degradation ladder levels (see engine/degradation.h).
enum class DegradationLevel : uint8_t {
  kHealthy = 0,
  kShedding = 1,
  kEmergency = 2,
  kBypass = 3,
};

const char* DegradationLevelName(DegradationLevel level);

/// \brief Configuration of the degradation ladder controller.
///
/// Entry thresholds are expressed as overload ratios µ(t)/θ so one set of
/// defaults works across workloads; the byte budget and error streak are
/// independent escalation signals (memory pressure and poisoned input must
/// escalate even when µ(t) looks healthy, e.g. under kWallClock noise).
struct DegradationOptions {
  bool enabled = false;

  /// Ladder entry thresholds as µ/θ ratios; must be increasing.
  double shedding_enter_ratio = 1.0;
  double emergency_enter_ratio = 2.0;
  double bypass_enter_ratio = 4.0;

  /// De-escalation requires the ratio below enter_ratio · hysteresis.
  double hysteresis = 0.7;
  /// Minimum events at a level before a downward step is considered.
  size_t cooldown_events = 512;

  /// Run-set byte budget (0 = unlimited). Exceeding it demands at least
  /// kEmergency; exceeding twice over demands kBypass.
  size_t run_bytes_budget = 0;

  /// Consecutive quarantined processing errors that demand kBypass
  /// (0 disables the signal). Requires the error budget to be enabled —
  /// without it the first error aborts the stream anyway.
  size_t error_streak_bypass = 8;

  /// Probability of dropping an arriving event while at kEmergency or
  /// above (input shedding in front of the automaton).
  double emergency_drop_probability = 0.5;
  /// Seed for the emergency input-shedding coin.
  uint64_t seed = 0x9e51;
};

/// \brief Poison tolerance for streaming ingestion.
///
/// When enabled, Engine::OfferEvent / ProcessStream quarantine events whose
/// processing fails (malformed payloads, type-flipped attributes,
/// out-of-order arrivals): the event is skipped, counted in
/// EngineMetrics::quarantined_events, and processing continues. Only a run
/// of `max_consecutive_errors` back-to-back failures aborts the stream —
/// that many in a row indicates systematic breakage, not stray poison.
/// Disabled (default), the first error propagates unchanged.
struct ErrorBudgetOptions {
  bool enabled = false;
  size_t max_consecutive_errors = 16;
};

/// \brief Checkpoint/restore configuration (src/ckpt/,
/// docs/CHECKPOINTING.md).
///
/// When a directory is set, the engine snapshots its full state every
/// `interval_events` events at the serial merge barrier (where state is
/// quiescent) and hands the encoded blob to a background writer, so the hot
/// path never blocks on the filesystem.
struct CheckpointOptions {
  /// Directory snapshots are written to; empty disables checkpointing.
  std::string directory;

  /// Events between automatic snapshots.
  size_t interval_events = 10000;

  /// Completed snapshots retained on disk, newest first (0 = keep all).
  size_t keep = 3;

  /// Write snapshots on the offering thread instead of the background
  /// writer. Slower, but every snapshot is durable before the next event is
  /// processed — used by tests and the crash-injection harness.
  bool synchronous = false;

  /// Snapshot file — or a checkpoint directory, in which case the newest
  /// valid snapshot wins — to restore from before processing starts; empty
  /// starts cold.
  std::string restore_from;

  /// Set by the driver when the input stream is wrapped in fault injection.
  /// The injected fault schedule is positional (one RNG drawn per delivered
  /// event), so resuming mid-stream would replay a different storm than the
  /// uninterrupted run saw — exactly-once resume is impossible and
  /// Validated() rejects the combination.
  bool fault_injection_active = false;

  bool enabled() const { return !directory.empty(); }
};

/// \brief Shadow-oracle sampling (engine/shadow.h).
///
/// A seeded subset of event-time slices ("spans") is mirrored through an
/// unshed ghost engine; comparing the primary's matches against the ghost's
/// within each sampled span yields a live estimate of recall under shedding.
struct ShadowOptions {
  /// Sample one span in `sample_every` (0 disables the shadow oracle,
  /// 1 mirrors every span). Selection is seeded and event-time based, so it
  /// is identical across batch sizes and fan-out widths.
  size_t sample_every = 0;

  /// Span width in event-time units (0 = 2x the query window, so most
  /// matches that start in a span also end in it).
  int64_t span_width = 0;

  /// Seed for the span-selection hash.
  uint64_t seed = 0x5eedc0de;

  /// Ghost run-set cap: a sampled span whose unshed ghost exceeds this many
  /// runs is abandoned (counted in cep_shadow_spans_aborted; the primary is
  /// never affected).
  size_t max_ghost_runs = 1 << 20;

  /// Closed spans retained for the windowed recall estimate.
  size_t window_spans = 64;

  bool enabled() const { return sample_every > 0; }
};

/// \brief Completion-model calibration monitoring (obs/quality.h).
struct CalibrationOptions {
  bool enabled = false;
  /// Fixed-width prediction buckets over [0, 1].
  size_t num_buckets = 10;
};

/// \brief Multi-window θ burn-rate SLO tracking (obs/quality.h).
struct SloOptions {
  bool enabled = false;
  /// Tolerated fraction of events with µ(t) > θ (0.01 = 99% within bound).
  double budget_fraction = 0.01;
  /// Strictly increasing event-count windows; the largest bounds the ring.
  std::vector<size_t> windows = {1024, 8192, 65536};
};

/// \brief Shedding-quality observability: shadow oracle, calibration
/// monitor, and θ SLO tracking. All three are deterministic (serial-merge
/// fed, event-time driven) and checkpointed as engine state components.
struct QualityOptions {
  ShadowOptions shadow;
  CalibrationOptions calibration;
  SloOptions slo;

  bool any_enabled() const {
    return shadow.enabled() || calibration.enabled || slo.enabled;
  }
};

/// \brief Engine configuration.
struct EngineOptions {
  SelectionStrategy selection = SelectionStrategy::kSkipTillAnyMatch;

  // Overload detection. Shedding triggers when µ(t) > latency_threshold_micros
  // (and a shedder is installed); a threshold <= 0 disables latency-triggered
  // shedding.
  LatencyMode latency_mode = LatencyMode::kVirtualCost;
  double latency_threshold_micros = 0.0;  ///< θ
  /// Calibrated cost of one edge evaluation for kVirtualCost /
  /// kQueueSimulation (nanoseconds).
  double virtual_ns_per_op = 100.0;
  /// kQueueSimulation: stream-time microseconds per arrival-clock
  /// microsecond (e.g. 1e6 replays one stream-hour in 3.6 arrival-seconds).
  double queue_time_compression = 1e6;
  /// Measurement interval for µ(t), in events.
  size_t latency_window_events = 256;
  /// Minimum number of events between consecutive shed triggers.
  size_t shed_cooldown_events = 256;

  ShedAmountOptions shed_amount;

  /// Hard cap on |R(t)|; exceeding it forces a shed regardless of latency
  /// (0 = unlimited). Safety valve and a deterministic overload trigger.
  size_t max_runs = 0;

  /// Accumulate matches in Engine::matches() (disable for pure-throughput
  /// benchmarks that use the callback instead).
  bool collect_matches = true;

  /// Overload-degradation ladder (engine/degradation.h). When enabled, the
  /// ladder gates the defenses: latency-triggered state shedding only fires
  /// at kShedding or above, input shedding and the adaptive shed fraction
  /// engage at kEmergency, and kBypass suppresses new run creation.
  DegradationOptions degradation;

  /// Poison tolerance for OfferEvent / ProcessStream.
  ErrorBudgetOptions error_budget;

  /// Run-arena block size in runs (engine/run_arena.h); 0 disables pooling
  /// and allocates runs from the global heap.
  size_t arena_block_runs = 512;

  /// Events pulled per ProcessStream batch (1 = event-at-a-time; must be
  /// >= 1 — Validated() rejects 0).
  size_t batch_size = 1;

  /// Checkpoint/restore settings (disabled by default).
  CheckpointOptions checkpoint;

  /// Shedding-quality observability (disabled by default).
  QualityOptions quality;

  /// Returns a copy of these options after cross-field validation, or an
  /// InvalidArgument Status naming the first conflicting setting. Call this
  /// before constructing an Engine: individual fields have sane defaults,
  /// but combinations (restore-from under fault injection, a zero batch
  /// size) only a whole-struct check can reject.
  Result<EngineOptions> Validated() const;
};

}  // namespace cep

#endif  // CEPSHED_ENGINE_OPTIONS_H_
