#include "engine/multi.h"

#include <sys/stat.h>

#include <map>

#include "ckpt/manager.h"
#include "ckpt/snapshot.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "opt/fingerprint.h"

namespace cep {

/// \brief The optimizer's durable state as one checkpoint component.
///
/// Serializes the optimized-layout digest (so restore refuses a snapshot
/// written under a different query set / merge mapping) plus the counters
/// that live outside any single engine: the prefilter drop count, the shared
/// table's evaluation count, and each physical engine's shared-skip count
/// (deliberately kept out of EngineMetrics, whose field table is
/// reflection-tested against the unoptimized engine).
class MultiEngine::OptStateComponent final : public ckpt::StateComponent {
 public:
  explicit OptStateComponent(MultiEngine* owner) : owner_(owner) {}

  Status SerializeTo(ckpt::Sink& sink) const override {
    sink.WriteU64(owner_->opt_digest_);
    sink.WriteU64(owner_->names_.size());
    sink.WriteU64(owner_->engines_.size());
    sink.WriteU64(owner_->opt_events_prefiltered_);
    sink.WriteU64(owner_->ir_ != nullptr ? owner_->ir_->preds.evals_done()
                                         : 0);
    for (const auto& engine : owner_->engines_) {
      sink.WriteU64(engine->shared_skips());
    }
    return Status::OK();
  }

  Status RestoreFrom(ckpt::Source& source) override {
    CEP_ASSIGN_OR_RETURN(const uint64_t digest, source.ReadU64());
    if (digest != owner_->opt_digest_) {
      return Status::InvalidArgument(StrFormat(
          "optimizer digest mismatch: snapshot %llx vs engine %llx (the "
          "snapshot was written under a different query set or pass "
          "configuration)",
          static_cast<unsigned long long>(digest),
          static_cast<unsigned long long>(owner_->opt_digest_)));
    }
    CEP_ASSIGN_OR_RETURN(const uint64_t queries, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(const uint64_t engines, source.ReadU64());
    if (queries != owner_->names_.size() ||
        engines != owner_->engines_.size()) {
      return Status::InvalidArgument(StrFormat(
          "optimizer layout mismatch: snapshot has %llu queries on %llu "
          "engines, this MultiEngine has %zu on %zu",
          static_cast<unsigned long long>(queries),
          static_cast<unsigned long long>(engines), owner_->names_.size(),
          owner_->engines_.size()));
    }
    CEP_ASSIGN_OR_RETURN(owner_->opt_events_prefiltered_, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(const uint64_t evals, source.ReadU64());
    if (owner_->ir_ != nullptr) owner_->ir_->preds.set_evals_done(evals);
    for (const auto& engine : owner_->engines_) {
      CEP_ASSIGN_OR_RETURN(const uint64_t skips, source.ReadU64());
      engine->set_shared_skips(skips);
    }
    return Status::OK();
  }

 private:
  MultiEngine* owner_;
};

MultiEngine::MultiEngine() = default;

MultiEngine::~MultiEngine() {
  // Engines hold raw pointers into ir_ (shared predicate table); tear them
  // down first regardless of member declaration order.
  engines_.clear();
}

size_t MultiEngine::AddQuery(NfaPtr nfa, EngineOptions options,
                             ShedderPtr shedder, std::string name) {
  // Default name: the query's explicit label, else the complex event it
  // emits (queries rarely carry a label, and "warning" beats "" in a
  // metrics dashboard). Duplicates are fine — ExportMetrics de-collides.
  if (name.empty()) name = nfa->query().name;
  if (name.empty()) name = nfa->query().return_spec.event_name;
  engines_.push_back(
      std::make_unique<Engine>(std::move(nfa), options, std::move(shedder)));
  if (pool_ != nullptr) engines_.back()->SetThreadPool(pool_.get());
  Engine* engine = engines_.back().get();
  engine->SetObsId(static_cast<uint32_t>(engines_.size() - 1));
  engine->AttachAuditLog(audit_log_);
  engine->AttachTracer(tracer_);
  names_.push_back(std::move(name));
  query_to_engine_.push_back(engines_.size() - 1);
  return names_.size() - 1;
}

Status MultiEngine::Optimize(const opt::OptOptions& options) {
  if (optimized_) {
    return Status::InvalidArgument("MultiEngine::Optimize called twice");
  }
  if (engines_.empty()) {
    return Status::InvalidArgument("no queries registered to optimize");
  }
  if (stream_offset() != 0 || TotalRuns() != 0) {
    return Status::InvalidArgument(
        "MultiEngine::Optimize must run before any event is processed");
  }

  auto ir = std::make_unique<opt::MultiQueryIr>();
  ir->units.reserve(engines_.size());
  for (size_t i = 0; i < engines_.size(); ++i) {
    const Engine& engine = *engines_[i];
    const EngineOptions& opts = engine.options();
    opt::QueryUnit unit;
    unit.query_index = i;
    unit.name = names_[i];
    unit.nfa = engine.nfa_ptr();
    unit.selection = opts.selection;
    unit.has_shedder = engine.shedder() != nullptr;
    unit.has_degradation = opts.degradation.enabled;
    unit.has_latency_threshold = opts.latency_threshold_micros > 0.0;
    unit.config_fingerprint = opt::FingerprintEngineOptions(opts);
    // Shedder state is per-query and cannot be serviced by a shared run set.
    unit.mergeable = options.merge && !unit.has_shedder;
    unit.leader = i;
    ir->units.push_back(std::move(unit));
  }

  opt::PassManager pipeline = opt::MakeDefaultPipeline(options);
  dumps_.clear();
  CEP_RETURN_NOT_OK(pipeline.Run(ir.get(), options.dump_ir, &dumps_));

  // Rebuild the physical engines around the rewritten automata. Each merge
  // leader gets a fresh engine on its (possibly rewritten) NFA; members are
  // remapped onto their leader's engine. Engines are rebuilt rather than
  // patched because the Nfa is immutable by design.
  std::vector<std::unique_ptr<Engine>> rebuilt;
  rebuilt.reserve(engines_.size());
  for (size_t i = 0; i < engines_.size(); ++i) {
    if (ir->units[i].leader != i) continue;
    Engine& old = *engines_[i];
    auto fresh = std::make_unique<Engine>(ir->units[i].nfa, old.options(),
                                          old.TakeShedder());
    fresh->SetObsId(static_cast<uint32_t>(i));
    fresh->AttachAuditLog(audit_log_);
    fresh->AttachTracer(tracer_);
    if (pool_ != nullptr) fresh->SetThreadPool(pool_.get());
    fresh->SetSharedPreds(&ir->preds);
    query_to_engine_[i] = rebuilt.size();
    rebuilt.push_back(std::move(fresh));
  }
  for (size_t i = 0; i < engines_.size(); ++i) {
    const size_t leader = ir->units[i].leader;
    if (leader != i) query_to_engine_[i] = query_to_engine_[leader];
  }

  // Layout digest: query count, per-query config fingerprint, and the merge
  // mapping. Embedded in snapshots so a restore under a different layout
  // fails loudly instead of scattering state across the wrong engines.
  uint64_t digest = Mix64(names_.size());
  for (const opt::QueryUnit& unit : ir->units) {
    digest = HashCombine(digest, unit.config_fingerprint);
    digest = HashCombine(digest, Mix64(unit.leader));
  }
  opt_digest_ = HashCombine(digest, Mix64(rebuilt.size()));

  engines_ = std::move(rebuilt);
  ir_ = std::move(ir);
  optimized_ = true;
  return Status::OK();
}

const ckpt::ComponentRegistry& MultiEngine::opt_components() {
  if (opt_component_ == nullptr) {
    opt_component_ = std::make_unique<OptStateComponent>(this);
    opt_components_.Register("opt.state", opt_component_.get());
  }
  return opt_components_;
}

void MultiEngine::PrepareEvent(const EventPtr& event) {
  if (!optimized_) return;
  ir_->preds.BeginEvent(*event);
  if (ir_->prefilter.enabled()) {
    const opt::SharedPredRow* row = ir_->preds.RowFor(event.get());
    if (row != nullptr && ir_->prefilter.ShouldDrop(*event, *row)) {
      ++opt_events_prefiltered_;
    }
  }
}

void MultiEngine::PrepareBatch(std::span<const EventPtr> events) {
  if (!optimized_) return;
  ir_->preds.BeginBatch(events);
  if (ir_->prefilter.enabled()) {
    for (const EventPtr& event : events) {
      const opt::SharedPredRow* row = ir_->preds.RowFor(event.get());
      if (row != nullptr && ir_->prefilter.ShouldDrop(*event, *row)) {
        ++opt_events_prefiltered_;
      }
    }
  }
}

void MultiEngine::AttachAuditLog(obs::ShedAuditLog* log) {
  audit_log_ = log;
  for (auto& engine : engines_) engine->AttachAuditLog(log);
}

void MultiEngine::AttachTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& engine : engines_) engine->AttachTracer(tracer);
}

void MultiEngine::ExportMetrics(obs::Registry* registry) const {
  std::map<std::string, size_t> name_uses;
  for (const std::string& name : names_) ++name_uses[name];
  for (size_t i = 0; i < names_.size(); ++i) {
    std::string label = names_[i];
    // Two queries may legitimately share a name (same query text registered
    // twice); a stable query-index suffix keeps their metric families apart.
    if (name_uses[label] > 1) label += StrFormat("#%zu", i);
    engines_[query_to_engine_[i]]->ExportMetrics(registry,
                                                 {{"query", label}});
  }
  if (names_.size() > 1) {
    // Unlabelled aggregate: counter fields only (histograms merge poorly
    // with snapshot semantics, and per-query is the interesting view anyway).
    const EngineMetrics total = AggregateMetrics();
    size_t count = 0;
    const EngineMetricField* fields = EngineMetricFields(&count);
    for (size_t i = 0; i < count; ++i) {
      const EngineMetricField& field = fields[i];
      if (field.u64 != nullptr && field.monotonic) {
        registry->GetCounter(field.prom_name, field.help)
            ->Set(total.*field.u64);
      } else if (field.u64 != nullptr) {
        registry->GetGauge(field.prom_name, field.help)
            ->Set(static_cast<double>(total.*field.u64));
      } else {
        registry->GetGauge(field.prom_name, field.help)->Set(total.*field.f64);
      }
    }
  }
  if (!optimized_ || ir_ == nullptr) return;

  const opt::OptStats& stats = ir_->stats;
  registry->GetGauge("cep_opt_queries", "Queries registered at Optimize()")
      ->Set(static_cast<double>(names_.size()));
  registry
      ->GetGauge("cep_opt_engines",
                 "Physical engines after shared-prefix merging")
      ->Set(static_cast<double>(engines_.size()));
  registry
      ->GetCounter("cep_opt_queries_merged_total",
                   "Queries folded into an identical leader's engine")
      ->Set(stats.queries_merged);
  registry
      ->GetCounter("cep_opt_states_eliminated_total",
                   "NFA states removed by dead-state elimination")
      ->Set(stats.states_eliminated);
  registry
      ->GetCounter("cep_opt_edges_eliminated_total",
                   "NFA edges removed by dead-state elimination")
      ->Set(stats.edges_eliminated);
  registry
      ->GetCounter("cep_opt_preds_folded_total",
                   "Constant predicates folded away")
      ->Set(stats.preds_folded);
  registry
      ->GetGauge("cep_opt_shared_preds",
                 "Unique predicates in the shared table")
      ->Set(static_cast<double>(ir_->preds.size()));
  registry
      ->GetCounter("cep_opt_preds_interned_total",
                   "Edge predicates offered to the shared table")
      ->Set(stats.preds_interned);
  registry
      ->GetCounter("cep_opt_preds_deduped_total",
                   "Interned predicates that hit an existing entry")
      ->Set(stats.preds_deduped);
  registry
      ->GetCounter("cep_opt_shared_pred_evals_total",
                   "Shared-predicate evaluations performed before fan-out")
      ->Set(ir_->preds.evals_done());
  uint64_t skips = 0;
  for (const auto& engine : engines_) skips += engine->shared_skips();
  registry
      ->GetCounter("cep_opt_engine_skips_total",
                   "Events skipped by engines via shared verdicts")
      ->Set(skips);
  registry
      ->GetCounter("cep_opt_events_prefiltered_total",
                   "Events provably inert for every registered query")
      ->Set(opt_events_prefiltered_);
  registry
      ->GetGauge("cep_opt_prefilter_safe",
                 "1 when the ingestion prefilter may drop events")
      ->Set(stats.prefilter_safe ? 1.0 : 0.0);
  registry
      ->GetGauge("cep_opt_prefilter_droppable_types",
                 "Event types the prefilter can decide from the event alone")
      ->Set(static_cast<double>(stats.prefilter_droppable_types));
  uint64_t runs_shared = 0;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (ir_->units[i].leader != i) {
      runs_shared +=
          engines_[query_to_engine_[i]]->metrics().runs_created;
    }
  }
  registry
      ->GetCounter("cep_opt_runs_shared_total",
                   "Leader runs also servicing a merged member query")
      ->Set(runs_shared);
}

void MultiEngine::EnableParallel(size_t threads) {
  pool_ = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  for (auto& engine : engines_) engine->SetThreadPool(pool_.get());
}

template <typename Fn>
Status MultiEngine::ForEachEngine(Fn&& fn) {
  if (pool_ == nullptr || engines_.size() < 2) {
    for (size_t i = 0; i < engines_.size(); ++i) {
      CEP_RETURN_NOT_OK(fn(i));
    }
    return Status::OK();
  }
  statuses_.assign(engines_.size(), Status::OK());
  pool_->ParallelFor(engines_.size(),
                     [&](size_t i) { statuses_[i] = fn(i); });
  for (Status& status : statuses_) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status MultiEngine::ProcessEvent(const EventPtr& event) {
  PrepareEvent(event);
  return ForEachEngine(
      [&](size_t i) { return engines_[i]->ProcessEvent(event); });
}

Status MultiEngine::OfferEvent(const EventPtr& event) {
  PrepareEvent(event);
  return ForEachEngine(
      [&](size_t i) { return engines_[i]->OfferEvent(event); });
}

Status MultiEngine::ProcessBatch(std::span<const EventPtr> events) {
  PrepareBatch(events);
  return ForEachEngine(
      [&](size_t i) { return engines_[i]->ProcessBatch(events); });
}

Status MultiEngine::ProcessStream(EventStream* stream, size_t batch_size) {
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

EngineMetrics MultiEngine::AggregateMetrics() const {
  EngineMetrics total;
  for (const auto& engine : engines_) {
    total.Add(engine->metrics());
    // Every engine sees the same stream: report it once, not per query.
    total.events_processed = engine->metrics().events_processed;
  }
  return total;
}

size_t MultiEngine::TotalRuns() const {
  size_t total = 0;
  for (const auto& engine : engines_) total += engine->num_runs();
  return total;
}

Result<std::string> MultiEngine::SerializeSnapshot() {
  ckpt::SnapshotBuilder builder(stream_offset());
  // Unoptimized: one section per query. Optimized: one per *physical*
  // engine plus the optimizer's own component section (digest +
  // cross-engine counters).
  const char* prefix = optimized_ ? "engine.%zu" : "query.%zu";
  for (size_t k = 0; k < engines_.size(); ++k) {
    CEP_RETURN_NOT_OK(
        engines_[k]->WriteSnapshotSection(builder, StrFormat(prefix, k)));
  }
  if (optimized_) {
    CEP_RETURN_NOT_OK(builder.AddNestedSnapshot(
        "opt", stream_offset(), [this](ckpt::SnapshotBuilder& nested) {
          return nested.AddComponents(opt_components());
        }));
  }
  return builder.Finish();
}

Status MultiEngine::RestoreFromSnapshot(std::string_view bytes) {
  CEP_ASSIGN_OR_RETURN(ckpt::SnapshotView view, ckpt::ParseSnapshot(bytes));
  if (!optimized_) {
    if (view.Find("opt") != nullptr) {
      return Status::InvalidArgument(
          "snapshot was written by an optimized MultiEngine; call Optimize() "
          "with the same configuration before restoring");
    }
    if (view.sections.size() != engines_.size()) {
      return Status::NotFound(StrFormat(
          "snapshot holds %zu queries, this MultiEngine has %zu: "
          "configuration mismatch",
          view.sections.size(), engines_.size()));
    }
    for (size_t i = 0; i < engines_.size(); ++i) {
      const std::string name = StrFormat("query.%zu", i);
      const ckpt::SnapshotSection* section = view.Find(name);
      if (section == nullptr) {
        return Status::NotFound("snapshot has no section '" + name +
                                "': configuration mismatch");
      }
      CEP_RETURN_NOT_OK(engines_[i]
                            ->RestoreFromSnapshot(section->payload)
                            .WithContext("restoring " + name + " ('" +
                                         names_[i] + "')"));
    }
    return Status::OK();
  }

  const ckpt::SnapshotSection* opt_section = view.Find("opt");
  if (opt_section == nullptr) {
    return Status::InvalidArgument(
        "snapshot was written by an unoptimized MultiEngine but this one is "
        "optimized: configuration mismatch");
  }
  if (view.sections.size() != engines_.size() + 1) {
    return Status::NotFound(StrFormat(
        "optimized snapshot holds %zu engines, this MultiEngine has %zu: "
        "configuration mismatch",
        view.sections.size() - 1, engines_.size()));
  }
  for (size_t k = 0; k < engines_.size(); ++k) {
    const std::string name = StrFormat("engine.%zu", k);
    const ckpt::SnapshotSection* section = view.Find(name);
    if (section == nullptr) {
      return Status::NotFound("snapshot has no section '" + name +
                              "': configuration mismatch");
    }
    CEP_RETURN_NOT_OK(engines_[k]
                          ->RestoreFromSnapshot(section->payload)
                          .WithContext("restoring " + name));
  }
  CEP_ASSIGN_OR_RETURN(ckpt::SnapshotView inner,
                       ckpt::ParseSnapshot(opt_section->payload));
  return ckpt::RestoreComponents(inner, opt_components())
      .WithContext("restoring optimizer state");
}

Status MultiEngine::RestoreFromFile(const std::string& path) {
  std::string file = path;
  struct stat file_stat;
  if (::stat(path.c_str(), &file_stat) == 0 && S_ISDIR(file_stat.st_mode)) {
    CEP_ASSIGN_OR_RETURN(file, ckpt::CheckpointManager::FindLatest(path));
  }
  CEP_ASSIGN_OR_RETURN(std::string bytes, ckpt::ReadFileBytes(file));
  return RestoreFromSnapshot(bytes).WithContext("restoring from '" + file +
                                                "'");
}

uint64_t MultiEngine::stream_offset() const {
  return engines_.empty() ? 0 : engines_.front()->stream_offset();
}

}  // namespace cep
