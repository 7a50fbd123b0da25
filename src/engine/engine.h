#ifndef CEPSHED_ENGINE_ENGINE_H_
#define CEPSHED_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/manager.h"
#include "ckpt/snapshot.h"
#include "ckpt/state_component.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "engine/batch_eval.h"
#include "engine/degradation.h"
#include "engine/latency_monitor.h"
#include "engine/match.h"
#include "engine/metrics.h"
#include "engine/options.h"
#include "engine/run.h"
#include "engine/run_arena.h"
#include "engine/run_store.h"
#include "event/reorder.h"
#include "event/stream.h"
#include "nfa/nfa.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/trace.h"
#include "shedding/shedder.h"

namespace cep {

class ShadowOracle;

namespace opt {
class SharedPredTable;
struct SharedPredRow;
}  // namespace opt

/// \brief NFA-based CEP evaluation engine with pluggable load shedding.
///
/// One Engine evaluates one compiled query over one event stream. The engine
/// maintains the set R(t) of partial matches (runs), evaluates each incoming
/// event against every run's outgoing edges, emits complete matches, tracks
/// the latency estimate µ(t), and — when µ(t) exceeds the configured
/// threshold θ — asks the installed Shedder to discard partial matches
/// (state-based load shedding) and/or input events (input-based baselines).
///
/// Per-event processing is split into a side-effect-free *evaluation* phase
/// (predicate verdicts per run, shardable across a worker pool — see
/// ParallelOptions and docs/PARALLELISM.md) and a serial *merge* phase that
/// applies births, matches, and shedder bookkeeping in run order. Results
/// are therefore bit-identical for any thread/shard configuration.
///
/// One engine is driven by one thread at a time; the worker pool is an
/// internal implementation detail of ProcessEvent.
class Engine {
 public:
  using MatchCallback = std::function<void(const Match&)>;

  /// `shedder` may be null (exhaustive processing, used for golden runs).
  Engine(NfaPtr nfa, EngineOptions options, ShedderPtr shedder = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Processes one event. Events must arrive in non-decreasing timestamp
  /// order. Errors indicate genuinely malformed queries/events (type errors
  /// in predicates), not match failures.
  Status ProcessEvent(const EventPtr& event);

  /// ProcessEvent with the error budget applied: when
  /// options.error_budget.enabled, a failing event is quarantined (skipped,
  /// counted in metrics().quarantined_events, engine state recovered) and OK
  /// is returned; only max_consecutive_errors back-to-back failures
  /// propagate. With the budget disabled this is exactly ProcessEvent.
  Status OfferEvent(const EventPtr& event);

  /// Feeds a batch through OfferEvent in order. Semantically identical to
  /// the event-at-a-time loop; exists to amortize per-event dispatch on the
  /// ingestion path (one virtual stream pull and one branch-predicted loop
  /// per batch instead of per event).
  Status ProcessBatch(std::span<const EventPtr> events);

  /// Drains `stream` through OfferEvent (poison-tolerant when the error
  /// budget is enabled; identical to repeated ProcessEvent otherwise).
  /// `batch_size` > 1 pulls events in batches of that size (ProcessBatch).
  Status ProcessStream(EventStream* stream, size_t batch_size = 1);

  /// End-of-stream: confirms and emits runs parked at deferred final states
  /// (trailing negation, whose windows have not closed yet). Other runs are
  /// left untouched; processing may continue afterwards, but a run emitted
  /// here will not be emitted again on expiry.
  Status Flush();

  /// Matches accumulated so far (when options.collect_matches).
  const std::vector<Match>& matches() const { return matches_; }

  /// Moves the accumulated matches out (harness convenience).
  std::vector<Match> TakeMatches();

  /// Invoked for every match in addition to (or instead of) accumulation.
  void SetMatchCallback(MatchCallback callback) {
    match_callback_ = std::move(callback);
  }

  /// Checks the run-conservation ledger: every run that ever entered R(t)
  /// (runs_created, plus runs_extended under skip-till-any-match, where each
  /// extension is a distinct run object) must be accounted for by exactly one
  /// exit counter (runs_completed / runs_expired / runs_killed / runs_shed /
  /// runs_aborted) or still be live. Also validates peak/derived counters.
  /// Meaningful at the merge barrier — i.e. between (Offer|Process)Event
  /// calls; debug builds assert it after every processed event. Returns
  /// Internal naming the broken equation on violation.
  Status VerifyInvariants() const;

  const EngineMetrics& metrics() const { return metrics_; }
  const Nfa& nfa() const { return *nfa_; }
  /// The shared automaton handle (optimizer rewrites alias its analysis).
  const NfaPtr& nfa_ptr() const { return nfa_; }
  const EngineOptions& options() const { return options_; }
  Shedder* shedder() { return shedder_.get(); }
  const Shedder* shedder() const { return shedder_.get(); }

  /// Releases the installed shedder. MultiEngine::Optimize extracts it when
  /// rebuilding this engine around a rewritten automaton; only meaningful
  /// before any event has been processed.
  ShedderPtr TakeShedder() { return std::move(shedder_); }

  // --- multi-query optimizer integration (src/opt/, docs/OPTIMIZER.md) ------

  /// Installs the cross-query shared-predicate verdict table. The owner
  /// (MultiEngine) must call table->Begin{Event,Batch} before handing each
  /// event to the engine so the event's verdict row exists; the engine then
  /// (a) reads precomputed verdicts for interned edge predicates instead of
  /// re-evaluating them, and (b) skips the full per-event pipeline when the
  /// row proves no start edge can fire and nothing else observes the event
  /// (no live runs, no shedder/degradation/shadow/tracer/reorder buffer).
  /// nullptr detaches. The table must outlive the engine's last event.
  void SetSharedPreds(const opt::SharedPredTable* table) {
    shared_preds_ = table;
  }
  const opt::SharedPredTable* shared_preds() const { return shared_preds_; }

  /// Events short-circuited by the shared-verdict skip fast path. Skipped
  /// events still count in metrics().events_processed with full virtual-cost
  /// accounting; the savings are wall-clock only.
  uint64_t shared_skips() const { return shared_skips_; }
  /// Restore path: the skip counter is optimizer state (it lives outside
  /// EngineMetrics), so MultiEngine's opt component reinstates it.
  void set_shared_skips(uint64_t v) { shared_skips_ = v; }

  /// Active partial matches R(t). Null slots never escape ProcessEvent.
  const std::vector<RunPtr>& runs() const { return run_store_.slots(); }
  size_t num_runs() const { return run_store_.size(); }

  /// The flat SoA store backing R(t) (column/bitmap introspection).
  const RunStore& run_store() const { return run_store_; }

  /// Compiled batched-evaluation plan for this engine's query.
  const BatchEvalPlan& batch_plan() const { return batch_plan_; }

  /// Current latency estimate µ(t) in microseconds.
  double CurrentLatencyMicros() const {
    return latency_monitor_->CurrentLatencyMicros();
  }

  /// Forces a shedding episode dropping `target` runs (testing / ablations).
  void ForceShed(size_t target);

  /// Degradation ladder state (null unless options.degradation.enabled).
  const DegradationController* degradation() const {
    return degradation_.get();
  }
  DegradationLevel degradation_level() const {
    return degradation_ != nullptr ? degradation_->level()
                                   : DegradationLevel::kHealthy;
  }

  /// Run-set byte estimate maintained for the degradation byte budget
  /// (0 when the ladder is disabled).
  size_t approx_run_bytes() const { return approx_run_bytes_; }

  /// Bytes held by co-tenant engines sharing this engine's byte budget.
  /// The degradation ladder compares `approx_run_bytes() + external` against
  /// the budget, so a tenant's engines shed as one unit: when a sibling
  /// query balloons, this engine feels the pressure too. Not serialized —
  /// the owning session recomputes it after every event and after restore.
  void SetExternalRunBytes(size_t bytes) { external_run_bytes_ = bytes; }
  size_t external_run_bytes() const { return external_run_bytes_; }

  /// Current quarantined-failure streak (error budget).
  size_t consecutive_errors() const { return consecutive_errors_; }

  /// Shares an external worker pool for the evaluation phase (MultiEngine
  /// hands all its engines one pool). Replaces any pool the engine owns;
  /// nullptr reverts to serial evaluation. The pool must outlive the
  /// engine's last ProcessEvent.
  void SetThreadPool(ThreadPool* pool);

  /// Pool used for sharded evaluation (null = serial).
  ThreadPool* thread_pool() const { return pool_; }

  /// The run arena backing R(t) (allocation pooling stats).
  const RunArena& arena() const { return arena_; }

  /// Mirrors `buffer`'s late-drop / occupancy counters into metrics() on
  /// every processed event (and on SyncReorderMetrics). The buffer must
  /// outlive the engine or be detached with nullptr.
  void AttachReorderBuffer(const ReorderBuffer* buffer) {
    reorder_buffer_ = buffer;
    SyncReorderMetrics();
  }

  /// Pulls the attached reorder buffer's counters into metrics() now
  /// (useful after flushing the buffer at end-of-stream).
  void SyncReorderMetrics();

  // --- checkpoint / restore (src/ckpt/, docs/CHECKPOINTING.md) --------------

  /// Serializes the engine's full durable state — run set, learned model
  /// backends, matches, metrics, µ(t) monitor, degradation ladder, RNG
  /// streams, and ingestion offset — into versioned snapshot bytes. Call
  /// between events (the serial merge barrier), where state is quiescent.
  Result<std::string> SerializeSnapshot();

  /// Writes the bytes SerializeSnapshot would return as section `name` of
  /// `builder`, in place: MultiEngine and tenant snapshots nest their
  /// engines this way. Sealed when the builder is.
  Status WriteSnapshotSection(ckpt::SnapshotBuilder& builder,
                              std::string_view name);

  /// Forces a snapshot now and writes it durably to the configured
  /// checkpoint directory before returning. InvalidArgument when
  /// options.checkpoint has no directory.
  Status Checkpoint();

  /// Replaces this engine's state from snapshot bytes. The engine must be
  /// configured like the writer (same shedder kind, latency mode, arena
  /// layout, attached audit log); mismatches fail with a typed error rather
  /// than restoring skewed state. On failure the engine should be discarded.
  Status RestoreFromSnapshot(std::string_view bytes);

  /// Restores from a snapshot file — or, when `path` is a directory, from
  /// the newest valid snapshot inside it (torn temp files and corrupt
  /// snapshots are skipped).
  Status RestoreFromFile(const std::string& path);

  /// Events consumed through OfferEvent/ProcessStream so far: the resume
  /// position recorded in snapshots. A driver restoring from a snapshot
  /// skips this many events before resuming the feed.
  uint64_t stream_offset() const { return stream_offset_; }

  /// Waits for outstanding background checkpoint writes and surfaces the
  /// first write error since the last flush. OK when checkpointing is off.
  Status FlushCheckpoints();

  /// Snapshots written (sync + async) since construction.
  uint64_t checkpoints_written() const;

  /// The engine's durable components, in serialization order (tests,
  /// ckpt_tool). Rebuilt on each call to reflect current attachments.
  const ckpt::ComponentRegistry& components();

  // --- observability (src/obs/, docs/OBSERVABILITY.md) ----------------------

  /// Identity of this engine in observability output: audit records carry it
  /// as engine_id, trace spans use it as their tid. MultiEngine assigns the
  /// query index; standalone engines default to 0.
  void SetObsId(uint32_t id) { obs_id_ = id; }
  uint32_t obs_id() const { return obs_id_; }

  /// Records every shedding decision into `log` (shared across engines
  /// under MultiEngine). The log must outlive the engine; nullptr detaches.
  void AttachAuditLog(obs::ShedAuditLog* log) { audit_log_ = log; }
  obs::ShedAuditLog* audit_log() const { return audit_log_; }

  /// Emits spans for event processing, merges, shedding episodes, and
  /// ladder transitions into `tracer`. Timestamps are the engine's
  /// cumulative busy clock (virtual microseconds under kVirtualCost /
  /// kQueueSimulation — deterministic across thread counts). nullptr
  /// detaches.
  void AttachTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Invoked once per shed victim, before the run is destroyed, with the
  /// audit record describing the decision (called even when no audit log is
  /// attached). Lets harnesses capture victim bindings for post-hoc recall
  /// attribution against an oracle run.
  using ShedCallback =
      std::function<void(const Run&, const obs::ShedDecisionRecord&)>;
  void SetShedCallback(ShedCallback callback) {
    shed_callback_ = std::move(callback);
  }

  /// Latency histograms (virtual microseconds except under kWallClock).
  const obs::Histogram& event_busy_histogram() const { return event_busy_us_; }
  const obs::Histogram& merge_histogram() const { return merge_us_; }
  const obs::Histogram& shed_episode_histogram() const {
    return shed_episode_us_;
  }

  /// Mirrors every EngineMetrics field plus the latency histograms into
  /// `registry` under `labels` (e.g. {{"query", name}} from MultiEngine).
  /// Call again to refresh; counters are snapshot-assigned.
  void ExportMetrics(obs::Registry* registry,
                     const obs::LabelSet& labels = {}) const;

  // --- shedding-quality observability (options.quality) ---------------------

  /// Shadow recall oracle (null unless options.quality.shadow enabled).
  const ShadowOracle* shadow() const { return shadow_.get(); }

  /// Completion-model calibration monitor (null unless enabled).
  const obs::CalibrationMonitor* calibration() const {
    return calibration_.get();
  }

  /// θ burn-rate SLO monitor (null unless enabled).
  const obs::ThetaSloMonitor* theta_slo() const { return slo_.get(); }

  /// Closes a still-open shadow span so end-of-stream matches are scored.
  /// Call after Flush(); no-op without the shadow oracle.
  void FinishShadowSpan();

  /// Quality document: {"schema_version":1,"shadow":{...},
  /// "calibration":{...},"theta_slo":{...}} with absent sections omitted.
  /// Schema checked by tools/validate_obs `quality`.
  std::string ExportQualityJson() const;

 private:
  /// Per-run verdict computed by the evaluation phase. Fired edge indices
  /// live in the owning shard's scratch, appended in run order, so the
  /// merge phase consumes them with a cursor — no per-run allocation.
  struct RunDecision {
    uint32_t ops = 0;       ///< edge evaluations performed for this run
    uint16_t fired = 0;     ///< passing-edge entries appended to shard scratch
    uint16_t fast_ops = 0;  ///< ops decided by the compiled fast path
    uint8_t flags = 0;      ///< kDecision* bits
  };

  static constexpr uint8_t kDecisionExpired = 1;
  static constexpr uint8_t kDecisionKilled = 2;
  static constexpr uint8_t kDecisionError = 4;

  /// Per-shard evaluation scratch. Padded so adjacent shards' bookkeeping
  /// does not false-share while workers append concurrently.
  struct alignas(64) ShardScratch {
    std::vector<uint16_t> fired;  ///< passing edge indices, run order
    std::vector<std::pair<size_t, Status>> errors;  ///< (run index, status)
  };

  /// Evaluates edge predicates with `event` virtually bound to
  /// `edge.var_index` of `run`. Exit predicates (if any) are checked first.
  Result<bool> EvalEdge(const Run& run, const Edge& edge, const Event& event);

  /// Evaluation phase over runs_[begin, end): writes decisions_ and
  /// `scratch`. Reads engine state but mutates nothing else — safe to run
  /// on worker threads alongside other shards.
  void EvalRunRange(const Event& event, Timestamp now, size_t begin,
                    size_t end, ShardScratch* scratch);

  /// Merge phase: applies the decisions in run order (expiry, kills,
  /// extensions, emissions, shedder hooks), exactly reproducing serial
  /// evaluation. `num_shards` must match the evaluation phase split.
  Status ApplyDecisions(const EventPtr& event, Timestamp now,
                        size_t num_shards, bool track_bytes,
                        size_t* live_bytes, bool* any_dead);

  /// Shard bounds: runs_[ShardBegin(s), ShardBegin(s+1)) for shard s.
  size_t ShardBegin(size_t shard, size_t num_shards, size_t n) const {
    return n * shard / num_shards;
  }

  /// Emits a match from `run` if the state's final predicates hold.
  /// Returns true if a match was emitted.
  Result<bool> TryEmit(const Run& run, Timestamp now);

  Result<EventPtr> BuildComplexEvent(const Run& run);

  RunArena* arena_ptr() {
    return options_.parallel.arena_block_runs > 0 ? &arena_ : nullptr;
  }
  void TriggerShed(Timestamp now, double latency);
  void CompactRuns();

  /// Books `bytes` out of approx_run_bytes_ when the degradation ladder's
  /// incremental accounting is active and in sync (shedding / Flush kill
  /// runs outside the per-event recomputation).
  void NoteRunBytesFreed(size_t bytes);

  /// Shared victim-application loop of TriggerShed/ForceShed: audits each
  /// victim (scores carried in the decision + audit log + shed callback),
  /// resets the slots, and bumps runs_shed. Returns the number of victims
  /// applied (stale / duplicate indices are skipped).
  size_t ApplyVictims(const ShedDecision& decision, Timestamp now);

  /// True when shed decisions should carry per-victim scores (an audit sink
  /// or shed callback will consume them).
  bool WantShedScores() const;

  /// Cumulative busy clock in whole microseconds — the trace timebase.
  uint64_t BusyClockMicros() const {
    return static_cast<uint64_t>(metrics_.busy_micros);
  }

  /// Restores run-set consistency after a failed ProcessEvent (drops the
  /// failing event's half-born runs, compacts null slots).
  void RecoverFromError();

  /// ProcessEvent body. The public ProcessEvent wraps it to drive the
  /// shadow oracle strictly after the event is fully applied (outside the
  /// latency measurement), so the oracle can never perturb primary results.
  Status ProcessEventInternal(const EventPtr& event);

  /// Joins the model's prediction for `run` (when the shedder has one)
  /// against its actual exit outcome in the calibration monitor. Called at
  /// every run exit in the serial merge phase, so observation order — and
  /// the monitor's bytes — are deterministic.
  void NoteRunOutcome(const Run& run, Timestamp now, bool completed);

  /// One θ SLO sample: was µ(t) above the bound after this event?
  void NoteSloSample(double busy_micros);

  /// Decides, from the current shared-verdict row alone, whether `event`
  /// can be skipped outright: no live runs, nothing but edge firing
  /// observes events, and every matching start edge has an interned
  /// predicate the row already proves false. Second member is the edge
  /// op count to account for the skipped event (identical to what the
  /// full pipeline would have charged).
  std::pair<bool, uint64_t> ProbeSkip(const Event& event) const;

  /// Replays ProcessEventInternal's per-event bookkeeping (metrics, µ(t),
  /// SLO sample, busy clock) for a skipped event without touching R(t).
  void NoteSkippedEvent(const EventPtr& event, uint64_t ops);

  // Composite-state adapters (defined in engine.cc): they expose groups of
  // engine fields — scalars, the run set, accumulated matches, metrics — as
  // StateComponents so checkpointing stays a registry walk.
  class CoreComponent;
  class RunSetComponent;
  class MatchesComponent;
  class MetricsComponent;

  /// Rebuilds components_ from the engine's current configuration and
  /// attachments (audit log, shedder). Section order is the snapshot layout.
  void BuildComponentRegistry();

  /// Interval-driven snapshot from OfferEvent: encode at the merge barrier,
  /// hand off to the background writer to seal and write (or write
  /// synchronously under options.checkpoint.synchronous).
  Status MaybeCheckpoint();

  /// Encodes a top-level snapshot, digests and CRC not yet computed.
  Result<ckpt::UnsealedSnapshot> EncodeSnapshot();

  NfaPtr nfa_;
  EngineOptions options_;
  ShedderPtr shedder_;
  std::unique_ptr<LatencyMonitor> latency_monitor_;
  std::unique_ptr<DegradationController> degradation_;
  Rng resilience_rng_;
  const ReorderBuffer* reorder_buffer_ = nullptr;

  // Arena must outlive the run store and vectors drawing from it
  // (destruction is in reverse declaration order).
  RunArena arena_;
  BatchEvalPlan batch_plan_;  ///< compiled predicates; outlives run_store_
  RunStore run_store_;        ///< R(t): slots + SoA columns + live/victim masks
  std::vector<RunPtr> new_runs_;  // births of the current event
  std::vector<Match> matches_;
  MatchCallback match_callback_;
  EngineMetrics metrics_;

  // Worker pool for the evaluation phase: owned when options.parallel
  // requests threads, or shared via SetThreadPool.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  std::vector<RunDecision> decisions_;
  std::vector<ShardScratch> shard_scratch_;

  // Per-state bitmask over (event type id % 64): quick "any edge may react
  // to this event type" filter on the per-run hot loop.
  std::vector<uint64_t> state_type_masks_;
  Run scratch_empty_run_;  ///< empty-binding view for spawn edge evaluation
  SchemaPtr output_schema_;  ///< RETURN complex event schema (or null)

  // --- multi-query optimizer hookup -----------------------------------------
  /// Shared-predicate verdict table (owned by MultiEngine's optimizer state;
  /// null for standalone engines and unoptimized fan-out).
  const opt::SharedPredTable* shared_preds_ = nullptr;
  /// Verdict row of the event currently in flight. Written serially at the
  /// top of ProcessEventInternal; evaluation-phase shards read it only.
  const opt::SharedPredRow* shared_row_ = nullptr;
  uint64_t shared_skips_ = 0;

  uint64_t next_run_id_ = 1;
  uint64_t next_match_id_ = 1;
  uint64_t events_since_shed_ = 0;
  Timestamp last_event_ts_ = INT64_MIN;
  uint64_t ops_this_event_ = 0;
  size_t approx_run_bytes_ = 0;
  /// True while approx_run_bytes_ is an exact sum over the live run set
  /// (set by the per-event recomputation, cleared on restore / quarantine).
  /// Gates the exact-sum assertion in VerifyInvariants and the incremental
  /// subtraction in NoteRunBytesFreed.
  bool bytes_synced_ = false;
  size_t external_run_bytes_ = 0;
  size_t consecutive_errors_ = 0;

  // --- checkpoint / restore --------------------------------------------------
  uint64_t stream_offset_ = 0;
  std::unique_ptr<CoreComponent> core_component_;
  std::unique_ptr<RunSetComponent> runs_component_;
  std::unique_ptr<MatchesComponent> matches_component_;
  std::unique_ptr<MetricsComponent> metrics_component_;
  ckpt::ComponentRegistry components_;
  std::unique_ptr<ckpt::CheckpointManager> ckpt_manager_;
  size_t last_snapshot_bytes_ = 0;  ///< buffer size hint for the next one

  // --- observability ---------------------------------------------------------
  uint32_t obs_id_ = 0;
  obs::ShedAuditLog* audit_log_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  ShedCallback shed_callback_;
  obs::Histogram event_busy_us_;
  obs::Histogram merge_us_;
  obs::Histogram shed_episode_us_;

  // --- shedding-quality observability ----------------------------------------
  std::unique_ptr<ShadowOracle> shadow_;
  std::unique_ptr<obs::CalibrationMonitor> calibration_;
  std::unique_ptr<obs::ThetaSloMonitor> slo_;
};

}  // namespace cep

#endif  // CEPSHED_ENGINE_ENGINE_H_
