#include "engine/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "ckpt/event_codec.h"
#include "ckpt/io.h"
#include "common/string_util.h"
#include "engine/shadow.h"
#include "opt/shared_preds.h"
#include "shedding/adaptive.h"

namespace cep {

namespace {

/// Type id used for RETURN complex events (outside any SchemaRegistry).
constexpr EventTypeId kComplexEventTypeId = kInvalidEventType - 1;

uint64_t TypeBit(EventTypeId type) { return 1ull << (type % 64); }

/// EngineMetrics::parallel_events counts the events that met R(t) holding
/// at least this many runs. The count feeds no decision; it stays because
/// the engine.metrics snapshot section carries it.
constexpr size_t kParallelEventsMinRuns = 256;

}  // namespace

const char* SelectionStrategyName(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kSkipTillAnyMatch:
      return "skip-till-any-match";
    case SelectionStrategy::kSkipTillNextMatch:
      return "skip-till-next-match";
    case SelectionStrategy::kStrictContiguity:
      return "strict-contiguity";
  }
  return "?";
}

// --- checkpoint component adapters ------------------------------------------
//
// These adapters expose composite engine state as StateComponents so
// Engine::SerializeSnapshot is a registry walk. Each owns one snapshot
// section; the byte layouts below are part of the snapshot format
// (docs/CHECKPOINTING.md).

/// Scalar engine state: id counters, ingestion position, shed cooldown, the
/// resilience RNG stream.
class Engine::CoreComponent final : public ckpt::StateComponent {
 public:
  explicit CoreComponent(Engine* engine) : e_(engine) {}

  Status SerializeTo(ckpt::Sink& sink) const override {
    sink.WriteU64(e_->next_run_id_);
    sink.WriteU64(e_->next_match_id_);
    sink.WriteU64(e_->events_since_shed_);
    sink.WriteI64(e_->last_event_ts_);
    sink.WriteU64(e_->approx_run_bytes_);
    sink.WriteU64(e_->consecutive_errors_);
    sink.WriteU64(e_->stream_offset_);
    for (const uint64_t word : e_->resilience_rng_.state()) {
      sink.WriteU64(word);
    }
    return Status::OK();
  }

  Status RestoreFrom(ckpt::Source& source) override {
    CEP_ASSIGN_OR_RETURN(e_->next_run_id_, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(e_->next_match_id_, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(e_->events_since_shed_, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(e_->last_event_ts_, source.ReadI64());
    CEP_ASSIGN_OR_RETURN(uint64_t run_bytes, source.ReadU64());
    e_->approx_run_bytes_ = static_cast<size_t>(run_bytes);
    CEP_ASSIGN_OR_RETURN(uint64_t errors, source.ReadU64());
    e_->consecutive_errors_ = static_cast<size_t>(errors);
    CEP_ASSIGN_OR_RETURN(e_->stream_offset_, source.ReadU64());
    std::array<uint64_t, 4> rng_state;
    for (auto& word : rng_state) {
      CEP_ASSIGN_OR_RETURN(word, source.ReadU64());
    }
    e_->resilience_rng_.set_state(rng_state);
    return Status::OK();
  }

 private:
  Engine* e_;
};

/// The run set R(t): a deduplicating event table followed by every run's
/// bindings encoded as table indices (see Run::SerializeTo).
class Engine::RunSetComponent final : public ckpt::StateComponent {
 public:
  explicit RunSetComponent(Engine* engine) : e_(engine) {}

  Status SerializeTo(ckpt::Sink& sink) const override {
    // One scratch table and run buffer per thread, reused by every engine
    // the thread snapshots: a run set never serializes inside another, and
    // the table is cleared first because its pointer keys are only valid
    // while the runs hold their events.
    static thread_local ckpt::EventTableBuilder table;
    static thread_local ckpt::Sink runs;
    table.Clear();
    runs.Clear();
    runs.WriteU64(e_->run_store_.size());
    for (const RunPtr& run : e_->run_store_.slots()) {
      CEP_RETURN_NOT_OK(run->SerializeTo(runs, &table));
    }
    // The table is written first (restore needs it before the runs), but
    // built while serializing the runs — hence the side sink.
    table.Serialize(sink);
    sink.WriteBytes(runs.bytes().data(), runs.size());
    return Status::OK();
  }

  Status RestoreFrom(ckpt::Source& source) override {
    ckpt::EventTable table;
    CEP_RETURN_NOT_OK(table.RestoreFrom(source));
    CEP_ASSIGN_OR_RETURN(uint64_t count, source.ReadU64());
    e_->new_runs_.clear();
    e_->run_store_.Clear();
    for (uint64_t i = 0; i < count; ++i) {
      CEP_ASSIGN_OR_RETURN(
          RunPtr run, Run::RestoreFrom(source, table, e_->arena_ptr()));
      e_->run_store_.Push(std::move(run));
    }
    // Restored chains are rebuilt without cross-run sharing, so the
    // incremental byte ledger is only trustworthy again after the next
    // event's from-scratch recomputation.
    e_->bytes_synced_ = false;
    return Status::OK();
  }

 private:
  Engine* e_;
};

/// Accumulated matches (options.collect_matches): exactly-once resume must
/// re-emit the pre-checkpoint output, so matches are engine state.
///
/// matches_ only grows between a restore and a TakeMatches(), so the event
/// table and the encoded match list of the previous snapshot stay valid:
/// each snapshot encodes only the matches emitted since. The table interns
/// in first-seen order over that append-only list, so the bytes equal a
/// from-scratch encoding; the matches keep their events alive, so the
/// table's pointer keys stay valid.
class Engine::MatchesComponent final : public ckpt::StateComponent {
 public:
  explicit MatchesComponent(Engine* engine) : e_(engine) {}

  /// Forgets the encoded prefix (matches_ was replaced or moved out).
  void Reset() {
    table_.Clear();
    body_.Clear();
    encoded_ = 0;
  }

  Status SerializeTo(ckpt::Sink& sink) const override {
    const std::vector<Match>& matches = e_->matches_;
    for (; encoded_ < matches.size(); ++encoded_) {
      const Match& match = matches[encoded_];
      body_.WriteU64(match.id);
      body_.WriteI64(match.first_ts);
      body_.WriteI64(match.last_ts);
      body_.WriteU64(match.fingerprint);
      body_.WriteU32(static_cast<uint32_t>(match.bindings.size()));
      for (const auto& binding : match.bindings) {
        body_.WriteU32(static_cast<uint32_t>(binding.size()));
        for (const EventPtr& event : binding) {
          body_.WriteU32(table_.Intern(event));
        }
      }
      if (match.complex_event != nullptr) {
        body_.WriteU8(1);
        body_.WriteU32(table_.Intern(match.complex_event));
      } else {
        body_.WriteU8(0);
      }
    }
    table_.Serialize(sink);
    sink.WriteU64(matches.size());
    sink.WriteBytes(body_.bytes().data(), body_.size());
    return Status::OK();
  }

  Status RestoreFrom(ckpt::Source& source) override {
    ckpt::EventTable table;
    CEP_RETURN_NOT_OK(table.RestoreFrom(source));
    CEP_ASSIGN_OR_RETURN(uint64_t count, source.ReadU64());
    Reset();
    e_->matches_.clear();
    e_->matches_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Match match;
      CEP_ASSIGN_OR_RETURN(match.id, source.ReadU64());
      CEP_ASSIGN_OR_RETURN(match.first_ts, source.ReadI64());
      CEP_ASSIGN_OR_RETURN(match.last_ts, source.ReadI64());
      CEP_ASSIGN_OR_RETURN(match.fingerprint, source.ReadU64());
      CEP_ASSIGN_OR_RETURN(uint32_t num_vars, source.ReadU32());
      match.bindings.resize(num_vars);
      for (uint32_t v = 0; v < num_vars; ++v) {
        CEP_ASSIGN_OR_RETURN(uint32_t num_events, source.ReadU32());
        match.bindings[v].reserve(num_events);
        for (uint32_t k = 0; k < num_events; ++k) {
          CEP_ASSIGN_OR_RETURN(uint32_t index, source.ReadU32());
          CEP_ASSIGN_OR_RETURN(EventPtr event, table.Get(index));
          match.bindings[v].push_back(std::move(event));
        }
      }
      CEP_ASSIGN_OR_RETURN(uint8_t has_complex, source.ReadU8());
      if (has_complex != 0) {
        CEP_ASSIGN_OR_RETURN(uint32_t index, source.ReadU32());
        CEP_ASSIGN_OR_RETURN(match.complex_event, table.Get(index));
      }
      e_->matches_.push_back(std::move(match));
    }
    return Status::OK();
  }

 private:
  Engine* e_;
  mutable ckpt::EventTableBuilder table_;
  mutable ckpt::Sink body_;  ///< matches_[0, encoded_) after the count
  mutable size_t encoded_ = 0;
};

/// EngineMetrics (field-table driven, so new counters snapshot
/// automatically) plus the latency histograms.
class Engine::MetricsComponent final : public ckpt::StateComponent {
 public:
  explicit MetricsComponent(Engine* engine) : e_(engine) {}

  Status SerializeTo(ckpt::Sink& sink) const override {
    size_t count = 0;
    const EngineMetricField* fields = EngineMetricFields(&count);
    sink.WriteU32(static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
      if (fields[i].u64 != nullptr) {
        sink.WriteU64(e_->metrics_.*fields[i].u64);
      } else {
        sink.WriteDouble(e_->metrics_.*fields[i].f64);
      }
    }
    e_->event_busy_us_.SerializeTo(sink);
    e_->merge_us_.SerializeTo(sink);
    e_->shed_episode_us_.SerializeTo(sink);
    return Status::OK();
  }

  Status RestoreFrom(ckpt::Source& source) override {
    size_t count = 0;
    const EngineMetricField* fields = EngineMetricFields(&count);
    CEP_ASSIGN_OR_RETURN(uint32_t stored, source.ReadU32());
    if (stored != count) {
      return Status::InvalidArgument(StrFormat(
          "snapshot has %u metric fields, this build has %zu", stored, count));
    }
    for (size_t i = 0; i < count; ++i) {
      if (fields[i].u64 != nullptr) {
        CEP_ASSIGN_OR_RETURN(e_->metrics_.*fields[i].u64, source.ReadU64());
      } else {
        CEP_ASSIGN_OR_RETURN(e_->metrics_.*fields[i].f64, source.ReadDouble());
      }
    }
    CEP_RETURN_NOT_OK(e_->event_busy_us_.RestoreFrom(source));
    CEP_RETURN_NOT_OK(e_->merge_us_.RestoreFrom(source));
    CEP_RETURN_NOT_OK(e_->shed_episode_us_.RestoreFrom(source));
    return Status::OK();
  }

 private:
  Engine* e_;
};

Engine::Engine(NfaPtr nfa, EngineOptions options, ShedderPtr shedder)
    : nfa_(std::move(nfa)),
      options_(options),
      shedder_(std::move(shedder)),
      resilience_rng_(options.degradation.seed),
      arena_(options.arena_block_runs),
      scratch_empty_run_(0, nfa_->analyzed().num_variables(), 0, 0) {
  if (options_.degradation.enabled) {
    degradation_ = std::make_unique<DegradationController>(options_.degradation);
  }
  switch (options_.latency_mode) {
    case LatencyMode::kWallClock:
      latency_monitor_ = std::make_unique<WallClockLatencyMonitor>(
          options_.latency_window_events);
      break;
    case LatencyMode::kQueueSimulation:
      latency_monitor_ = std::make_unique<QueueingLatencyMonitor>(
          options_.latency_window_events, options_.virtual_ns_per_op,
          options_.queue_time_compression);
      break;
    case LatencyMode::kVirtualCost:
      latency_monitor_ = std::make_unique<VirtualCostLatencyMonitor>(
          options_.latency_window_events, options_.virtual_ns_per_op);
      break;
  }
  state_type_masks_.resize(nfa_->num_states(), 0);
  for (const auto& state : nfa_->states()) {
    for (const auto& edge : state.edges) {
      state_type_masks_[state.id] |= TypeBit(edge.event_type);
    }
  }
  batch_plan_.Compile(*nfa_);
  run_store_.SetHotPlan(&batch_plan_.hot_plan());
  metrics_.hot_attr_slots = batch_plan_.hot_plan().size();
  const ReturnSpec& spec = nfa_->query().return_spec;
  if (!spec.empty()) {
    std::vector<AttributeDef> attrs;
    attrs.reserve(spec.items.size());
    for (const auto& item : spec.items) {
      // Output attribute types are determined by the RETURN expressions at
      // match time; kNull here means "dynamically typed".
      attrs.push_back(AttributeDef{item.name, ValueType::kNull});
    }
    output_schema_ =
        std::make_shared<EventSchema>(spec.event_name, std::move(attrs));
  }
  if (shedder_ != nullptr) shedder_->Attach(*nfa_);
  if (options_.quality.slo.enabled) {
    slo_ = std::make_unique<obs::ThetaSloMonitor>(
        options_.quality.slo.windows, options_.quality.slo.budget_fraction);
  }
  if (options_.quality.calibration.enabled) {
    calibration_ = std::make_unique<obs::CalibrationMonitor>(
        options_.quality.calibration.num_buckets);
  }
  if (options_.quality.shadow.enabled()) {
    shadow_ = std::make_unique<ShadowOracle>(nfa_, options_);
  }
  core_component_ = std::make_unique<CoreComponent>(this);
  runs_component_ = std::make_unique<RunSetComponent>(this);
  matches_component_ = std::make_unique<MatchesComponent>(this);
  metrics_component_ = std::make_unique<MetricsComponent>(this);
  if (options_.checkpoint.enabled()) {
    ckpt_manager_ = std::make_unique<ckpt::CheckpointManager>(
        options_.checkpoint.directory, options_.checkpoint.keep);
  }
}

Engine::~Engine() = default;

Result<bool> Engine::EvalEdge(const Run& run, const Edge& edge,
                              const Event& event) {
  const RunBindingView view(run, edge.var_index, &event);
  for (const Expr* pred : edge.exit_predicates) {
    CEP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*pred, view));
    if (!pass) return false;
  }
  // Interned (event-only) predicates read the precomputed shared verdict
  // instead of re-interpreting the expression per run. Consulted in edge
  // order, so short-circuiting — including which predicate's error
  // surfaces — is identical to inline evaluation.
  const bool consult = shared_row_ != nullptr &&
                       edge.shared_pred_ids.size() == edge.predicates.size();
  for (size_t j = 0; j < edge.predicates.size(); ++j) {
    if (consult) {
      const int32_t id = edge.shared_pred_ids[j];
      if (id >= 0) {
        const int8_t v = shared_row_->verdicts[id];
        if (v == opt::SharedPredTable::kTrue) continue;
        if (v == opt::SharedPredTable::kFalse) return false;
        if (v == opt::SharedPredTable::kError) {
          return shared_row_->ErrorFor(id);
        }
        // kNotEvaluated (row built for another type); evaluate inline.
      }
    }
    CEP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*edge.predicates[j], view));
    if (!pass) return false;
  }
  return true;
}

Result<EventPtr> Engine::BuildComplexEvent(const Run& run) {
  const ReturnSpec& spec = nfa_->query().return_spec;
  const RunBindingView view(run);
  std::vector<Value> values;
  values.reserve(spec.items.size());
  for (const auto& item : spec.items) {
    CEP_ASSIGN_OR_RETURN(Value v, item.expr->Eval(view));
    values.push_back(std::move(v));
  }
  return std::make_shared<Event>(kComplexEventTypeId, output_schema_,
                                 run.last_ts(), std::move(values),
                                 next_match_id_);
}

Result<bool> Engine::TryEmit(const Run& run, Timestamp now) {
  const State& state = nfa_->state(run.state());
  const RunBindingView view(run);
  for (const Expr* pred : state.final_predicates) {
    CEP_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*pred, view));
    if (!pass) return false;
  }
  Match match;
  match.id = next_match_id_++;
  match.first_ts = run.start_ts();
  match.last_ts = run.last_ts();
  match.bindings = run.CopyBindings();
  match.fingerprint = MatchFingerprint(match.bindings);
  if (output_schema_ != nullptr) {
    CEP_ASSIGN_OR_RETURN(match.complex_event, BuildComplexEvent(run));
  }
  ++metrics_.matches_emitted;
  if (shedder_ != nullptr) shedder_->OnMatchEmitted(run, now);
  if (shadow_ != nullptr) {
    shadow_->NotePrimaryMatch(match.fingerprint, match.first_ts,
                              match.last_ts);
  }
  if (match_callback_) match_callback_(match);
  if (options_.collect_matches) matches_.push_back(std::move(match));
  return true;
}

Status Engine::AdvanceRuns(const EventPtr& event, Timestamp now,
                           bool track_bytes, size_t* live_bytes,
                           bool* any_dead) {
  const uint64_t ebit = TypeBit(event->type());
  const Duration window = nfa_->window();
  const SelectionStrategy sel = options_.selection;
  const bool strict = sel == SelectionStrategy::kStrictContiguity;
  const bool in_place = sel != SelectionStrategy::kSkipTillAnyMatch;
  // Hot loop: expiry and state routing read the store's flat columns, and
  // compiled-fast edges evaluate against the gathered HotCell columns — a
  // non-advancing run is decided without ever dereferencing its Run object.
  const int32_t* states = run_store_.states();
  const int64_t* start_ts = run_store_.start_ts();
  const size_t n = run_store_.size();
  Status error;  // a predicate error, returned once the run's edges applied
  for (size_t i = 0; i < n; ++i) {
    RunPtr& slot = run_store_.slot(i);
    Run* run = slot.get();
    const size_t run_bytes = track_bytes ? run->ApproxBytes() : 0;
    *live_bytes += run_bytes;
    const int32_t st = states[i];
    const State& state = nfa_->state(st);
    if (now - start_ts[i] > window) {  // Run::Expired over the column
      // A run waiting at a deferred final state (trailing negation) is
      // confirmed by its window closing without a violation: emit now.
      bool emitted = false;
      if (state.deferred_final) {
        CEP_ASSIGN_OR_RETURN(emitted, TryEmit(*run, now));
      }
      if (shedder_ != nullptr) shedder_->OnRunExpired(*run, now);
      NoteRunOutcome(*run, now, emitted);
      ++metrics_.runs_expired;
      run_store_.Kill(i);
      *live_bytes -= run_bytes;
      *any_dead = true;
      continue;
    }

    // Decide: which of the run's edges fire, and whether a kill edge holds.
    fired_edges_.clear();
    bool killed = false;
    if ((state_type_masks_[st] & ebit) != 0) {
      for (size_t e = 0; e < state.edges.size(); ++e) {
        const Edge& edge = state.edges[e];
        if (edge.event_type != event->type()) continue;
        ++ops_this_event_;
        bool passed;
        const BatchEvalPlan::CompiledEdge& ce = batch_plan_.edge(st, e);
        const FastVerdict verdict = ce.fast
                                        ? batch_plan_.EvalFast(ce, i)
                                        : FastVerdict::kFallback;
        if (verdict != FastVerdict::kFallback) {
          passed = verdict == FastVerdict::kTrue;
          ++metrics_.fast_path_edges;
        } else {
          Result<bool> pass = EvalEdge(*run, edge, *event);
          if (!pass.ok()) {
            error = pass.status();
            break;
          }
          passed = pass.ValueOrDie();
        }
        if (!passed) continue;
        if (edge.kind == EdgeKind::kKill) {
          killed = true;
          break;
        }
        fired_edges_.push_back(static_cast<uint16_t>(e));
        // Greedy strategies apply the first applicable transition in place
        // and stop scanning edges for this run.
        if (in_place) break;
      }
    }

    // Apply the fired edges in edge order.
    for (const uint16_t e : fired_edges_) {
      const Edge& edge = state.edges[e];
      if (!in_place) {
        // Skip-till-any-match: branch; the original run survives untouched.
        RunPtr child = run->Extend(next_run_id_++, edge.var_index, event,
                                   edge.target, arena_ptr());
        ++metrics_.runs_extended;
        if (shedder_ != nullptr) {
          shedder_->OnRunExtended(run, child.get(), *event, now);
        }
        const State& target = nfa_->state(edge.target);
        bool keep = true;
        if (target.is_final) {
          if (target.deferred_final) {
            // Trailing negation: emission waits for the window to close.
          } else {
            const Result<bool> emitted = TryEmit(*child, now);
            if (!emitted.ok()) {
              // The child was counted in runs_extended but never joins
              // R(t); book the exit so the conservation ledger closes.
              ++metrics_.runs_aborted;
              return emitted.status();
            }
            // A final state with outgoing edges is a trailing Kleene state:
            // the child keeps collecting; a plain final state completes it.
            keep = !target.edges.empty();
          }
        }
        if (keep) {
          new_runs_.push_back(std::move(child));
        } else {
          NoteRunOutcome(*child, now, /*completed=*/true);
          ++metrics_.runs_completed;
        }
      } else {
        run->Bind(edge.var_index, event, edge.target, arena_.cell_pool());
        ++metrics_.runs_extended;
        if (shedder_ != nullptr) {
          shedder_->OnRunExtended(nullptr, run, *event, now);
        }
        const State& target = nfa_->state(edge.target);
        if (target.is_final && !target.deferred_final) {
          CEP_RETURN_NOT_OK(TryEmit(*run, now).status());
          if (target.edges.empty()) {
            NoteRunOutcome(*run, now, /*completed=*/true);
            ++metrics_.runs_completed;
            run_store_.Kill(i);
            *live_bytes -= run_bytes;
            *any_dead = true;
          }
        }
      }
    }
    if (in_place && !fired_edges_.empty() && slot != nullptr) {
      // The greedy bind mutated the run in place: re-gather its columns
      // and book the growth (run_bytes above was measured pre-mutation).
      run_store_.Refresh(i);
      if (track_bytes) *live_bytes += run->ApproxBytes() - run_bytes;
    }
    if (!error.ok()) return error;
    if (killed) {
      NoteRunOutcome(*run, now, /*completed=*/false);
      ++metrics_.runs_killed;
      run_store_.Kill(i);
      *live_bytes -= run_bytes;
      *any_dead = true;
      continue;
    }
    if (strict && fired_edges_.empty() && !state.deferred_final) {
      // Strict contiguity: an event that does not advance the run breaks
      // it.
      NoteRunOutcome(*run, now, /*completed=*/false);
      ++metrics_.runs_killed;
      run_store_.Kill(i);
      *live_bytes -= run_bytes;
      *any_dead = true;
    }
  }
  return Status::OK();
}

std::pair<bool, uint64_t> Engine::ProbeSkip(const Event& event) const {
  // Only the bare edge-firing pipeline may be elided: every listed feature
  // observes events (or their cost) even when nothing fires.
  if (shared_preds_ == nullptr || shedder_ != nullptr ||
      degradation_ != nullptr || shadow_ != nullptr || tracer_ != nullptr ||
      reorder_buffer_ != nullptr) {
    return {false, 0};
  }
  if (run_store_.size() != 0) return {false, 0};
  if (event.timestamp() < last_event_ts_) return {false, 0};  // error path
  const opt::SharedPredRow* row = shared_preds_->RowFor(&event);
  if (row == nullptr) return {false, 0};
  const State& start = nfa_->state(nfa_->start_state());
  if ((state_type_masks_[start.id] & TypeBit(event.type())) == 0) {
    return {true, 1};  // no edge of this type anywhere near the start state
  }
  uint64_t ops = 1;
  for (const Edge& edge : start.edges) {
    if (edge.kind == EdgeKind::kKill || edge.event_type != event.type()) {
      continue;
    }
    ++ops;  // the spawn loop charges one op per matching edge
    if (edge.predicates.empty() ||
        edge.shared_pred_ids.size() != edge.predicates.size()) {
      return {false, 0};  // edge would fire / verdict not decidable from row
    }
    bool dead = false;
    for (size_t j = 0; j < edge.predicates.size(); ++j) {
      const int32_t id = edge.shared_pred_ids[j];
      if (id < 0) return {false, 0};  // run-context predicate: evaluate fully
      const int8_t v = row->verdicts[id];
      if (v == opt::SharedPredTable::kFalse) {
        dead = true;
        break;
      }
      if (v != opt::SharedPredTable::kTrue) {
        return {false, 0};  // error (must surface) or foreign-type row
      }
    }
    if (!dead) return {false, 0};  // all predicates hold: the edge fires
  }
  return {true, ops};
}

void Engine::NoteSkippedEvent(const EventPtr& event, uint64_t ops) {
  ++shared_skips_;
  last_event_ts_ = event->timestamp();
  ops_this_event_ = ops;
  ++metrics_.events_processed;
  metrics_.edge_evaluations += ops;
  metrics_.arena_bytes_reserved = std::max<uint64_t>(
      metrics_.arena_bytes_reserved, arena_.bytes_reserved());
  // Virtual-cost accounting matches the full pipeline exactly (same ops), so
  // µ(t) and the SLO burn rates are unchanged by skipping; under kWallClock
  // the skipped event just contributes ~0 µs, as it genuinely cost.
  const bool wall = options_.latency_mode == LatencyMode::kWallClock;
  const double busy_added =
      wall ? 0.0
           : static_cast<double>(ops) * options_.virtual_ns_per_op / 1000.0;
  metrics_.busy_micros += busy_added;
  if constexpr (obs::kEnabled) {
    event_busy_us_.Record(busy_added);
  }
  latency_monitor_->Record(event->timestamp(), 0.0, ops);
  NoteSloSample(busy_added);
  ++events_since_shed_;
}

Status Engine::ProcessEvent(const EventPtr& event) {
  if (shared_preds_ != nullptr) {
    const auto [skip, ops] = ProbeSkip(*event);
    if (skip) {
      NoteSkippedEvent(event, ops);
      return Status::OK();
    }
  }
  if (shadow_ == nullptr) return ProcessEventInternal(event);
  const Status status = ProcessEventInternal(event);
  // Drive the oracle only once the event's fate is known, outside the
  // latency measurement: a failed (quarantined) event leaves no trace in
  // shadow state, and shadow work never inflates µ(t).
  if (status.ok()) {
    shadow_->OnEventConsumed(event);
  } else {
    shadow_->DiscardPending();
  }
  return status;
}

Status Engine::ProcessEventInternal(const EventPtr& event) {
  using Clock = std::chrono::steady_clock;
  const bool wall = options_.latency_mode == LatencyMode::kWallClock;
  const Clock::time_point t0 = wall ? Clock::now() : Clock::time_point();
  // Trace timebase: this event's span starts where the busy clock stood
  // before the event was processed.
  const uint64_t busy_start_us = BusyClockMicros();

  // Fetch this event's shared-predicate verdict row once for every run.
  shared_row_ = shared_preds_ != nullptr ? shared_preds_->RowFor(event.get())
                                         : nullptr;

  const Timestamp now = event->timestamp();
  if (now < last_event_ts_) {
    return Status::InvalidArgument(StrFormat(
        "event timestamps must be non-decreasing (%lld after %lld)",
        static_cast<long long>(now), static_cast<long long>(last_event_ts_)));
  }
  last_event_ts_ = now;
  ops_this_event_ = 1;

  // Degradation ladder: decide this event's operating level from the last
  // event's µ(t), run-set bytes, and the current poison streak.
  DegradationLevel level = DegradationLevel::kHealthy;
  if (degradation_ != nullptr) {
    const double theta = options_.latency_threshold_micros;
    const double ratio =
        theta > 0 ? latency_monitor_->CurrentLatencyMicros() / theta : 0.0;
    const DegradationLevel prev_level = degradation_->level();
    level = degradation_->Update(ratio, approx_run_bytes_ + external_run_bytes_,
                                 consecutive_errors_);
    metrics_.degradation_ups = degradation_->ups();
    metrics_.degradation_downs = degradation_->downs();
    if constexpr (obs::kEnabled) {
      if (tracer_ != nullptr && level != prev_level) {
        tracer_->Instant(level > prev_level ? "ladder_up" : "ladder_down",
                         busy_start_us, obs_id_ * 4, "level",
                         static_cast<uint64_t>(level));
      }
    }
    if (level >= DegradationLevel::kEmergency &&
        resilience_rng_.NextBernoulli(
            options_.degradation.emergency_drop_probability)) {
      // Emergency input shedding: discard in front of the automaton so the
      // run set stops growing while state shedding catches up.
      ++metrics_.emergency_input_drops;
      ++metrics_.events_dropped;
      latency_monitor_->Record(now, 0.0, 1);
      NoteSloSample(0.0);
      return Status::OK();
    }
  }

  // Input probe: every arriving event is offered to the strategy, which can
  // claim it (drop_event) and/or shed runs pre-emptively in one decision.
  if (shedder_ != nullptr) {
    ShedContext probe{run_store_.slots(), now, /*target=*/0,
                      WantShedScores()};
    probe.event = event.get();
    probe.overloaded = options_.latency_threshold_micros > 0 &&
                       latency_monitor_->CurrentLatencyMicros() >
                           options_.latency_threshold_micros;
    probe.store = &run_store_;
    probe.window = nfa_ != nullptr ? nfa_->window() : 0;
    probe.degradation_level =
        degradation_ != nullptr ? static_cast<int>(level) : -1;
    ShedDecision decision = shedder_->Decide(probe);
    if (!decision.victims.empty()) {
      const size_t applied = ApplyVictims(decision, now);
      if (applied > 0) {
        CompactRuns();
        ++metrics_.shed_triggers;
      }
    }
    if (decision.drop_event) {
      ++metrics_.events_dropped;
      latency_monitor_->Record(now, 0.0, 1);
      NoteSloSample(0.0);
      return Status::OK();
    }
  }

  const uint64_t ebit = TypeBit(event->type());
  const bool track_bytes = degradation_ != nullptr;
  size_t live_bytes = 0;
  bool any_dead = false;

  const size_t n = run_store_.size();
  if (n >= kParallelEventsMinRuns) ++metrics_.parallel_events;
  // Encode the candidate's attributes once per event for the fast path.
  if (n > 0) batch_plan_.BeginEvent(*event, run_store_);
  const uint64_t ops_before = ops_this_event_;
  CEP_RETURN_NOT_OK(
      AdvanceRuns(event, now, track_bytes, &live_bytes, &any_dead));
  const uint64_t eval_ops = ops_this_event_ - ops_before;

  // Spawn new runs from the initial state. kBypass sacrifices new pattern
  // instances to preserve the ones already in flight.
  const State& start = nfa_->state(nfa_->start_state());
  if ((state_type_masks_[start.id] & ebit) != 0 &&
      level == DegradationLevel::kBypass) {
    ++metrics_.bypassed_spawns;
  } else if ((state_type_masks_[start.id] & ebit) != 0) {
    for (const Edge& edge : start.edges) {
      if (edge.kind == EdgeKind::kKill || edge.event_type != event->type()) {
        continue;
      }
      ++ops_this_event_;
      const RunBindingView view(scratch_empty_run_, edge.var_index,
                                event.get());
      bool pass = true;
      const bool consult =
          shared_row_ != nullptr &&
          edge.shared_pred_ids.size() == edge.predicates.size();
      for (size_t j = 0; j < edge.predicates.size(); ++j) {
        const int32_t id = consult ? edge.shared_pred_ids[j] : -1;
        if (id >= 0) {
          const int8_t v = shared_row_->verdicts[id];
          if (v == opt::SharedPredTable::kTrue) continue;
          if (v == opt::SharedPredTable::kFalse) {
            pass = false;
            break;
          }
          if (v == opt::SharedPredTable::kError) {
            return shared_row_->ErrorFor(id);
          }
        }
        CEP_ASSIGN_OR_RETURN(pass, EvalPredicate(*edge.predicates[j], view));
        if (!pass) break;
      }
      if (!pass) continue;
      RunPtr run = arena_ptr() != nullptr
                       ? arena_.New(next_run_id_++,
                                    nfa_->analyzed().num_variables(),
                                    nfa_->start_state(), now)
                       : MakeRun(next_run_id_++,
                                 nfa_->analyzed().num_variables(),
                                 nfa_->start_state(), now);
      run->Bind(edge.var_index, event, edge.target, arena_.cell_pool());
      ++metrics_.runs_created;
      if (shedder_ != nullptr) shedder_->OnRunCreated(run.get(), *event, now);
      const State& target = nfa_->state(edge.target);
      bool keep = true;
      if (target.is_final) {
        if (!target.deferred_final) {
          const Result<bool> emitted = TryEmit(*run, now);
          if (!emitted.ok()) {
            // Counted in runs_created but never joins R(t).
            ++metrics_.runs_aborted;
            return emitted.status();
          }
          keep = !target.edges.empty();
        }
      }
      if (keep) {
        new_runs_.push_back(std::move(run));
      } else {
        NoteRunOutcome(*run, now, /*completed=*/true);
        ++metrics_.runs_completed;
      }
    }
  }

  if (any_dead) CompactRuns();
  for (auto& run : new_runs_) {
    if (track_bytes) live_bytes += run->ApproxBytes();
    run_store_.Push(std::move(run));
  }
  new_runs_.clear();
  if (track_bytes) {
    approx_run_bytes_ = live_bytes;
    bytes_synced_ = true;
    metrics_.peak_run_bytes =
        std::max<uint64_t>(metrics_.peak_run_bytes, live_bytes);
  }

  ++metrics_.events_processed;
  metrics_.edge_evaluations += ops_this_event_;
  metrics_.peak_runs =
      std::max<uint64_t>(metrics_.peak_runs, run_store_.size());
  metrics_.arena_bytes_reserved = std::max<uint64_t>(
      metrics_.arena_bytes_reserved, arena_.bytes_reserved());

  double micros = 0.0;
  double busy_added = 0.0;
  if (wall) {
    micros = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                 .count();
    busy_added = micros;
  } else {
    busy_added = static_cast<double>(ops_this_event_) *
                 options_.virtual_ns_per_op / 1000.0;
  }
  metrics_.busy_micros += busy_added;
  if constexpr (obs::kEnabled) {
    event_busy_us_.Record(busy_added);
    if (n > 0) {
      // Serial-merge cost proxy: one run-scan per live run. Deterministic
      // (unlike wall time) and proportional to the real merge work.
      merge_us_.Record(static_cast<double>(n) * options_.virtual_ns_per_op /
                       1000.0);
    }
    if (tracer_ != nullptr) {
      const uint32_t lane = obs_id_ * 4;
      const uint64_t dur = static_cast<uint64_t>(busy_added);
      tracer_->Span("event", busy_start_us, dur, lane, "ops", ops_this_event_);
      if (n > 0) {
        const uint64_t eval_dur = static_cast<uint64_t>(
            static_cast<double>(eval_ops) * options_.virtual_ns_per_op /
            1000.0);
        tracer_->Span("eval", busy_start_us, eval_dur, lane + 1, "runs", n);
        tracer_->Span("merge", busy_start_us + eval_dur,
                      static_cast<uint64_t>(
                          static_cast<double>(n) * options_.virtual_ns_per_op /
                          1000.0),
                      lane + 2, "runs", n);
      }
    }
  }
  latency_monitor_->Record(now, micros, ops_this_event_);
  NoteSloSample(busy_added);
  ++events_since_shed_;

  if (shedder_ != nullptr && !run_store_.empty()) {
    const double latency = latency_monitor_->CurrentLatencyMicros();
    bool latency_overload =
        options_.latency_threshold_micros > 0 &&
        latency > options_.latency_threshold_micros &&
        events_since_shed_ >= options_.shed_cooldown_events;
    // With the ladder enabled, state shedding is a *defense level*: it only
    // fires once the controller has escalated to kShedding. The max_runs
    // safety valve stays unconditional.
    if (degradation_ != nullptr &&
        degradation_->level() < DegradationLevel::kShedding) {
      latency_overload = false;
    }
    const bool cap_overload =
        options_.max_runs > 0 && run_store_.size() > options_.max_runs;
    if (latency_overload || cap_overload) TriggerShed(now, latency);
  }
  if (reorder_buffer_ != nullptr) SyncReorderMetrics();
#ifndef NDEBUG
  {
    // Merge barrier: new_runs_ is folded into R(t) and shedding has run, so
    // the conservation ledger must balance here on every event.
    const Status invariants = VerifyInvariants();
    if (!invariants.ok()) {
      std::fprintf(stderr, "Engine::VerifyInvariants failed: %s\n",
                   invariants.ToString().c_str());
      std::abort();
    }
  }
#endif
  return Status::OK();
}

Status Engine::OfferEvent(const EventPtr& event) {
  Status status = ProcessEvent(event);
  if (status.ok()) {
    consecutive_errors_ = 0;
  } else if (!options_.error_budget.enabled) {
    return status;
  } else {
    ++consecutive_errors_;
    ++metrics_.quarantined_events;
    RecoverFromError();
    if (consecutive_errors_ >= options_.error_budget.max_consecutive_errors) {
      return status.WithContext(
          StrFormat("error budget exhausted (%zu consecutive failures)",
                    consecutive_errors_));
    }
  }
  // Every consumed event (including quarantined ones) advances the stream
  // position: on restore the CLI skips exactly stream_offset() events, so
  // the offset must count consumption, not successful evaluation.
  ++stream_offset_;
  if (ckpt_manager_ != nullptr &&
      stream_offset_ % options_.checkpoint.interval_events == 0) {
    CEP_RETURN_NOT_OK(MaybeCheckpoint());
  }
  return Status::OK();
}

Status Engine::ProcessBatch(std::span<const EventPtr> events) {
  const uint64_t batch_start_us = BusyClockMicros();
  for (const EventPtr& event : events) {
    CEP_RETURN_NOT_OK(OfferEvent(event));
  }
  if constexpr (obs::kEnabled) {
    if (tracer_ != nullptr && !events.empty()) {
      tracer_->Span("ingest_batch", batch_start_us,
                    BusyClockMicros() - batch_start_us, obs_id_ * 4, "events",
                    events.size());
    }
  }
  return Status::OK();
}

Status Engine::ProcessStream(EventStream* stream, size_t batch_size) {
  if (batch_size <= 1) {
    while (EventPtr event = stream->Next()) {
      CEP_RETURN_NOT_OK(OfferEvent(event));
    }
    return Status::OK();
  }
  std::vector<EventPtr> batch;
  batch.reserve(batch_size);
  for (;;) {
    batch.clear();
    while (batch.size() < batch_size) {
      EventPtr event = stream->Next();
      if (event == nullptr) break;
      batch.push_back(std::move(event));
    }
    if (batch.empty()) return Status::OK();
    CEP_RETURN_NOT_OK(ProcessBatch(batch));
  }
}

void Engine::RecoverFromError() {
  // The failing event's half-born runs were counted created/extended but
  // never reached R(t): book them as aborted so conservation still holds.
  metrics_.runs_aborted += new_runs_.size();
  new_runs_.clear();
  CompactRuns();
  // The aborted event never reached the byte recomputation, and the merge
  // may have partially applied (greedy binds, deaths) before failing.
  bytes_synced_ = false;
}

Status Engine::VerifyInvariants() const {
  const EngineMetrics& m = metrics_;
  // Under skip-till-any-match every extension is a new run object; the
  // greedy strategies mutate in place, so only creations enter the ledger.
  const uint64_t entered =
      m.runs_created +
      (options_.selection == SelectionStrategy::kSkipTillAnyMatch
           ? m.runs_extended
           : 0);
  const uint64_t exited = m.runs_completed + m.runs_expired + m.runs_killed +
                          m.runs_shed + m.runs_aborted;
  const uint64_t live = run_store_.size();
  if (entered != exited + live) {
    return Status::Internal(StrFormat(
        "run conservation violated: created=%llu extended=%llu (entered=%llu)"
        " != completed=%llu + expired=%llu + killed=%llu + shed=%llu +"
        " aborted=%llu (exited=%llu) + live=%llu",
        static_cast<unsigned long long>(m.runs_created),
        static_cast<unsigned long long>(m.runs_extended),
        static_cast<unsigned long long>(entered),
        static_cast<unsigned long long>(m.runs_completed),
        static_cast<unsigned long long>(m.runs_expired),
        static_cast<unsigned long long>(m.runs_killed),
        static_cast<unsigned long long>(m.runs_shed),
        static_cast<unsigned long long>(m.runs_aborted),
        static_cast<unsigned long long>(exited),
        static_cast<unsigned long long>(live)));
  }
  if (m.peak_runs < live) {
    return Status::Internal(StrFormat(
        "peak_runs=%llu below live run count %llu",
        static_cast<unsigned long long>(m.peak_runs),
        static_cast<unsigned long long>(live)));
  }
  if (m.runs_shed > entered) {
    return Status::Internal(StrFormat(
        "runs_shed=%llu exceeds runs ever entered %llu",
        static_cast<unsigned long long>(m.runs_shed),
        static_cast<unsigned long long>(entered)));
  }
  if (m.parallel_events > m.events_processed) {
    return Status::Internal(StrFormat(
        "parallel_events=%llu exceeds events_processed=%llu",
        static_cast<unsigned long long>(m.parallel_events),
        static_cast<unsigned long long>(m.events_processed)));
  }
  if (m.fast_path_edges > m.edge_evaluations) {
    return Status::Internal(StrFormat(
        "fast_path_edges=%llu exceeds edge_evaluations=%llu",
        static_cast<unsigned long long>(m.fast_path_edges),
        static_cast<unsigned long long>(m.edge_evaluations)));
  }
  // SoA columns must mirror the runs they cache (deep-checks a bounded
  // prefix; the mask/slot agreement is checked for every row).
  CEP_RETURN_NOT_OK(run_store_.CheckConsistency(128));
  // The degradation ladder's byte ledger must be the exact sum of
  // Run::ApproxBytes over R(t) whenever the incremental accounting is in
  // sync (i.e. outside restore/quarantine windows).
  if (degradation_ != nullptr && bytes_synced_) {
    size_t sum = 0;
    for (const RunPtr& run : run_store_.slots()) {
      if (run != nullptr) sum += run->ApproxBytes();
    }
    if (sum != approx_run_bytes_) {
      return Status::Internal(StrFormat(
          "run byte ledger drifted: approx_run_bytes=%zu, exact sum=%zu over "
          "%llu runs",
          approx_run_bytes_, sum, static_cast<unsigned long long>(live)));
    }
  }
  return Status::OK();
}

void Engine::SyncReorderMetrics() {
  if (reorder_buffer_ == nullptr) return;
  metrics_.reorder_late_dropped = reorder_buffer_->late_dropped();
  metrics_.reorder_buffered_peak = std::max<uint64_t>(
      metrics_.reorder_buffered_peak, reorder_buffer_->buffered());
}

void Engine::ExportMetrics(obs::Registry* registry,
                           const obs::LabelSet& labels) const {
  size_t count = 0;
  const EngineMetricField* fields = EngineMetricFields(&count);
  for (size_t i = 0; i < count; ++i) {
    const EngineMetricField& field = fields[i];
    if (field.u64 != nullptr && field.monotonic) {
      registry->GetCounter(field.prom_name, field.help, labels)
          ->Set(metrics_.*field.u64);
    } else if (field.u64 != nullptr) {
      registry->GetGauge(field.prom_name, field.help, labels)
          ->Set(static_cast<double>(metrics_.*field.u64));
    } else {
      // Fractional totals (busy_micros) export as gauges: the Counter
      // instrument is integral.
      registry->GetGauge(field.prom_name, field.help, labels)
          ->Set(metrics_.*field.f64);
    }
  }
  registry
      ->GetHistogram("cep_event_busy_us",
                     "Per-event busy time (virtual microseconds except under "
                     "wall-clock latency mode)",
                     event_busy_us_.spec(), labels)
      ->CopyFrom(event_busy_us_);
  registry
      ->GetHistogram("cep_merge_us",
                     "Per-event serial merge cost proxy (one scan per live "
                     "run, virtual microseconds)",
                     merge_us_.spec(), labels)
      ->CopyFrom(merge_us_);
  registry
      ->GetHistogram("cep_shed_episode_us",
                     "Shedding-episode cost proxy (one score-and-rank pass "
                     "over R(t), virtual microseconds)",
                     shed_episode_us_.spec(), labels)
      ->CopyFrom(shed_episode_us_);
  // Binding-slab occupancy is export-only (never checkpointed): restored run
  // sets rebuild chains without cross-run sharing, so slab stats are not
  // restore-deterministic the way EngineMetrics fields must be.
  registry
      ->GetGauge("cep_binding_slab_bytes",
                 "Bytes reserved by the pooled binding-cell slab", labels)
      ->Set(static_cast<double>(arena_.cell_bytes_reserved()));
  if (const BindingCellPool* cells = arena_.cell_pool()) {
    registry
        ->GetGauge("cep_binding_cells_live",
                   "Pooled binding-chain cells currently live", labels)
        ->Set(static_cast<double>(cells->live()));
    registry
        ->GetGauge("cep_binding_cells_peak",
                   "Peak live pooled binding-chain cells", labels)
        ->Set(static_cast<double>(cells->peak_live()));
  }
  registry
      ->GetGauge("cep_degradation_level",
                 "Current overload-degradation ladder level (0 = healthy, "
                 "1 = shedding, 2 = emergency, 3 = bypass)",
                 labels)
      ->Set(static_cast<double>(degradation_level()));
  if (slo_ != nullptr) slo_->Export(registry, labels);
  if (calibration_ != nullptr) {
    calibration_->Export(registry, labels,
                         shedder_ != nullptr ? shedder_->name() : "none");
  }
  if (shadow_ != nullptr) shadow_->Export(registry, labels);
}

Status Engine::Flush() {
  bool any_dead = false;
  const size_t n = run_store_.size();
  for (size_t i = 0; i < n; ++i) {
    Run* run = run_store_.at(i);
    if (nfa_->state(run->state()).deferred_final) {
      CEP_ASSIGN_OR_RETURN(const bool emitted, TryEmit(*run, last_event_ts_));
      NoteRunOutcome(*run, last_event_ts_, emitted);
      ++metrics_.runs_expired;
      NoteRunBytesFreed(run->ApproxBytes());
      run_store_.Kill(i);
      any_dead = true;
    }
  }
  if (any_dead) CompactRuns();
  return Status::OK();
}

bool Engine::WantShedScores() const {
  if (calibration_ != nullptr) return true;
  if constexpr (obs::kEnabled) {
    return audit_log_ != nullptr || static_cast<bool>(shed_callback_);
  }
  return false;
}

void Engine::NoteRunOutcome(const Run& run, Timestamp now, bool completed) {
  if (calibration_ == nullptr || shedder_ == nullptr) return;
  ShedVictimScores scores;
  if (!shedder_->DescribeVictim(run, now, &scores)) return;
  // C+(r|t) is a matches-per-run ratio and can exceed 1 for prolific cells;
  // clamp to read it as a completion probability.
  calibration_->ObserveOutcome(std::clamp(scores.c_plus, 0.0, 1.0),
                               completed);
}

void Engine::NoteSloSample(double busy_micros) {
  if (slo_ == nullptr) return;
  const double theta = options_.latency_threshold_micros;
  slo_->Observe(
      theta > 0 && latency_monitor_->CurrentLatencyMicros() > theta,
      busy_micros);
}

void Engine::FinishShadowSpan() {
  if (shadow_ != nullptr) shadow_->Finish();
}

std::string Engine::ExportQualityJson() const {
  std::string out = "{\"schema_version\":1";
  if (shadow_ != nullptr) out += ",\"shadow\":" + shadow_->ToJson();
  if (calibration_ != nullptr) {
    out += ",\"calibration\":" + calibration_->ToJson();
  }
  if (slo_ != nullptr) out += ",\"theta_slo\":" + slo_->ToJson();
  out += "}";
  return out;
}

size_t Engine::ApplyVictims(const ShedDecision& decision, Timestamp now) {
  const size_t live = run_store_.size();
  const double fraction =
      live > 0 ? static_cast<double>(decision.victims.size()) / live : 0.0;
  const uint64_t episode = metrics_.shed_triggers;  // 0-based ordinal
  size_t applied = 0;
  for (const ShedVictim& victim : decision.victims) {
    const size_t idx = victim.index;
    if (idx >= run_store_.size() || run_store_.at(idx) == nullptr) continue;
    if constexpr (obs::kEnabled) {
      if (audit_log_ != nullptr || shed_callback_) {
        const Run& run = *run_store_.at(idx);
        obs::ShedDecisionRecord record;
        record.engine_id = obs_id_;
        record.episode = episode;
        record.run_id = run.id();
        record.nfa_state = run.state();
        record.shed_ts = now;
        record.run_start_ts = run.start_ts();
        if (victim.has_scores) {
          record.c_plus = victim.scores.c_plus;
          record.c_minus = victim.scores.c_minus;
          record.score = victim.scores.score;
          record.time_slice = victim.scores.time_slice;
        }
        record.shed_fraction = fraction;
        record.degradation_level = static_cast<uint8_t>(degradation_level());
        if (shed_callback_) shed_callback_(run, record);
        if (audit_log_ != nullptr) audit_log_->Append(std::move(record));
      }
    }
    if (calibration_ != nullptr && victim.has_scores) {
      calibration_->ObserveShed(
          std::clamp(victim.scores.c_plus, 0.0, 1.0));
    }
    NoteRunBytesFreed(run_store_.at(idx)->ApproxBytes());
    run_store_.MarkVictim(idx);
    ++metrics_.runs_shed;
    ++applied;
  }
  return applied;
}

void Engine::NoteRunBytesFreed(size_t bytes) {
  if (degradation_ == nullptr || !bytes_synced_) return;
  approx_run_bytes_ -= std::min(approx_run_bytes_, bytes);
}

void Engine::TriggerShed(Timestamp now, double latency) {
  ShedAmountOptions amount = options_.shed_amount;
  if (degradation_ != nullptr &&
      degradation_->level() >= DegradationLevel::kEmergency) {
    // kEmergency escalates the shed amount to the overshoot-scaled fraction
    // regardless of the configured mode.
    amount.mode = ShedAmountOptions::Mode::kAdaptive;
  }
  size_t target = ComputeShedTarget(amount, run_store_.size(), latency,
                                    options_.latency_threshold_micros);
  if (options_.max_runs > 0 && run_store_.size() > options_.max_runs) {
    target = std::max(target, run_store_.size() - options_.max_runs);
  }
  if (target == 0) return;
  ShedContext ctx{run_store_.slots(), now, target, WantShedScores()};
  ctx.overloaded = true;
  ctx.store = &run_store_;
  ctx.window = nfa_ != nullptr ? nfa_->window() : 0;
  ctx.degradation_level =
      degradation_ != nullptr ? static_cast<int>(degradation_->level()) : -1;
  const ShedDecision decision = shedder_->Decide(ctx);
  const size_t scanned = run_store_.size();
  const size_t applied = ApplyVictims(decision, now);
  CompactRuns();
  ++metrics_.shed_triggers;
  if constexpr (obs::kEnabled) {
    // Episode cost proxy: one score-and-rank pass over the live run set.
    const double episode_us =
        static_cast<double>(scanned) * options_.virtual_ns_per_op / 1000.0;
    shed_episode_us_.Record(episode_us);
    if (tracer_ != nullptr) {
      tracer_->Span("shed_episode", BusyClockMicros(),
                    static_cast<uint64_t>(episode_us), obs_id_ * 4 + 3,
                    "victims", applied);
    }
  }
  // Past latency samples describe the pre-shed state set; start a fresh
  // measurement interval so µ(t) reflects the reduced load.
  latency_monitor_->Reset();
  events_since_shed_ = 0;
}

void Engine::ForceShed(size_t target) {
  if (shedder_ == nullptr || run_store_.empty() || target == 0) return;
  ShedContext ctx{run_store_.slots(), last_event_ts_, target,
                  WantShedScores()};
  ctx.store = &run_store_;
  ctx.window = nfa_ != nullptr ? nfa_->window() : 0;
  ctx.degradation_level =
      degradation_ != nullptr ? static_cast<int>(degradation_->level()) : -1;
  const ShedDecision decision = shedder_->Decide(ctx);
  const size_t scanned = run_store_.size();
  const size_t applied = ApplyVictims(decision, last_event_ts_);
  CompactRuns();
  ++metrics_.shed_triggers;
  if constexpr (obs::kEnabled) {
    const double episode_us =
        static_cast<double>(scanned) * options_.virtual_ns_per_op / 1000.0;
    shed_episode_us_.Record(episode_us);
    if (tracer_ != nullptr) {
      tracer_->Span("shed_episode", BusyClockMicros(),
                    static_cast<uint64_t>(episode_us), obs_id_ * 4 + 3,
                    "victims", applied);
    }
  }
}

void Engine::CompactRuns() { run_store_.Compact(); }

// --- checkpoint / restore ----------------------------------------------------

void Engine::BuildComponentRegistry() {
  // Rebuilt on every snapshot/restore so late attachments (audit log,
  // degradation controller) are always reflected.
  components_.Clear();
  components_.Register("engine.core", core_component_.get());
  components_.Register("engine.arena", &arena_);
  components_.Register("engine.runs", runs_component_.get());
  components_.Register("engine.matches", matches_component_.get());
  components_.Register("engine.metrics", metrics_component_.get());
  components_.Register("engine.latency", latency_monitor_.get());
  if (degradation_ != nullptr) {
    components_.Register("engine.degradation", degradation_.get());
  }
  if (shedder_ != nullptr) {
    // Embedding the shedder kind in the section name makes a restore into an
    // engine with a different shedder fail as a configuration mismatch.
    components_.Register("shedder." + shedder_->name(), shedder_.get());
  }
  if (audit_log_ != nullptr) {
    components_.Register("obs.audit", audit_log_);
  }
  // Quality monitors append after every pre-existing section so snapshots
  // from builds without them keep their prefix layout.
  if (slo_ != nullptr) components_.Register("obs.slo", slo_.get());
  if (calibration_ != nullptr) {
    components_.Register("obs.calibration", calibration_.get());
  }
  if (shadow_ != nullptr) components_.Register("obs.shadow", shadow_.get());
}

const ckpt::ComponentRegistry& Engine::components() {
  BuildComponentRegistry();
  return components_;
}

Result<ckpt::UnsealedSnapshot> Engine::EncodeSnapshot() {
  BuildComponentRegistry();
  // A little headroom over the last size keeps a slowly growing snapshot
  // from doubling its buffer.
  ckpt::SnapshotBuilder builder(stream_offset_,
                                last_snapshot_bytes_ + last_snapshot_bytes_ / 8);
  CEP_RETURN_NOT_OK(builder.AddComponents(components_));
  ckpt::UnsealedSnapshot snapshot = builder.FinishUnsealed();
  last_snapshot_bytes_ = snapshot.size();
  return snapshot;
}

Result<std::string> Engine::SerializeSnapshot() {
  CEP_ASSIGN_OR_RETURN(ckpt::UnsealedSnapshot snapshot, EncodeSnapshot());
  return std::move(snapshot).Seal();
}

Status Engine::WriteSnapshotSection(ckpt::SnapshotBuilder& builder,
                                    std::string_view name) {
  BuildComponentRegistry();
  return builder.AddNestedSnapshot(
      name, stream_offset_, [this](ckpt::SnapshotBuilder& nested) {
        return nested.AddComponents(components_);
      });
}

std::vector<Match> Engine::TakeMatches() {
  matches_component_->Reset();
  std::vector<Match> out = std::move(matches_);
  matches_.clear();
  return out;
}

Status Engine::RestoreFromSnapshot(std::string_view bytes) {
  CEP_ASSIGN_OR_RETURN(ckpt::SnapshotView view, ckpt::ParseSnapshot(bytes));
  BuildComponentRegistry();
  CEP_RETURN_NOT_OK(ckpt::RestoreComponents(view, components_));
  stream_offset_ = view.stream_offset;
  return Status::OK();
}

Status Engine::RestoreFromFile(const std::string& path) {
  std::string file = path;
  struct stat file_stat;
  if (::stat(path.c_str(), &file_stat) == 0 && S_ISDIR(file_stat.st_mode)) {
    CEP_ASSIGN_OR_RETURN(file, ckpt::CheckpointManager::FindLatest(path));
  }
  CEP_ASSIGN_OR_RETURN(std::string bytes, ckpt::ReadFileBytes(file));
  return RestoreFromSnapshot(bytes)
      .WithContext("restoring from '" + file + "'");
}

Status Engine::Checkpoint() {
  if (ckpt_manager_ == nullptr) {
    return Status::InvalidArgument("no checkpoint directory configured");
  }
  CEP_ASSIGN_OR_RETURN(std::string blob, SerializeSnapshot());
  return ckpt_manager_->WriteNow(blob, stream_offset_);
}

Status Engine::MaybeCheckpoint() {
  CEP_ASSIGN_OR_RETURN(ckpt::UnsealedSnapshot snapshot, EncodeSnapshot());
  if (options_.checkpoint.synchronous) {
    return ckpt_manager_->WriteNow(std::move(snapshot).Seal(), stream_offset_);
  }
  ckpt_manager_->SubmitAsync(std::move(snapshot), stream_offset_);
  return Status::OK();
}

Status Engine::FlushCheckpoints() {
  return ckpt_manager_ != nullptr ? ckpt_manager_->Flush() : Status::OK();
}

uint64_t Engine::checkpoints_written() const {
  return ckpt_manager_ != nullptr ? ckpt_manager_->snapshots_written() : 0;
}

}  // namespace cep
