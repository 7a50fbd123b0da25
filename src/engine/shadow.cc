#include "engine/shadow.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "engine/match.h"

namespace cep {

namespace {

/// Floor division so spans tile negative timestamps without a seam at 0.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

ShadowOracle::ShadowOracle(NfaPtr nfa, const EngineOptions& primary_options)
    : nfa_(std::move(nfa)), options_(primary_options.quality.shadow) {
  if (options_.span_width > 0) {
    span_width_ = options_.span_width;
  } else {
    const Duration window = nfa_->window();
    span_width_ = window > 0 ? 2 * window : 1;
  }
  // The ghost configuration is derived only from fields that do not vary
  // with the primary's execution settings, so oracle state is
  // byte-identical across batch and arena settings of the primary.
  ghost_options_.selection = primary_options.selection;
  ghost_options_.latency_mode = LatencyMode::kVirtualCost;
  ghost_options_.latency_threshold_micros = 0.0;
  ghost_options_.virtual_ns_per_op = primary_options.virtual_ns_per_op;
  ghost_options_.collect_matches = false;
  ring_.resize(options_.window_spans);
}

ShadowOracle::~ShadowOracle() = default;

bool ShadowOracle::SpanSampled(int64_t span_id) const {
  if (options_.sample_every <= 1) return true;
  return Mix64(options_.seed ^ static_cast<uint64_t>(span_id)) %
             options_.sample_every ==
         0;
}

Status ShadowOracle::MakeGhost() {
  CEP_ASSIGN_OR_RETURN(EngineOptions validated, ghost_options_.Validated());
  ghost_ = std::make_unique<Engine>(nfa_, std::move(validated));
  ghost_->SetMatchCallback([this](const Match& match) {
    if (match.first_ts >= span_start_ && match.last_ts <= span_end_) {
      ghost_fps_.push_back(match.fingerprint);
    }
  });
  return Status::OK();
}

void ShadowOracle::OpenSpan(int64_t span_id) {
  span_id_ = span_id;
  span_start_ = span_id * span_width_;
  span_end_ = span_start_ + span_width_ - 1;
  ++spans_sampled_;
  state_ = MakeGhost().ok() ? SpanState::kActive : SpanState::kPoisoned;
}

void ShadowOracle::PoisonSpan() {
  state_ = SpanState::kPoisoned;
  ghost_.reset();
  primary_fps_.clear();
  ghost_fps_.clear();
}

void ShadowOracle::RecordClosedSpan(const SpanStat& stat) {
  ring_[ring_pos_] = stat;
  ring_pos_ = (ring_pos_ + 1) % ring_.size();
  ring_size_ = std::min(ring_size_ + 1, ring_.size());
}

void ShadowOracle::CloseSpan() {
  if (state_ == SpanState::kActive && !ghost_->Flush().ok()) {
    state_ = SpanState::kPoisoned;
  }
  if (state_ == SpanState::kActive) {
    SpanStat stat;
    stat.ghost = ghost_fps_.size();
    std::unordered_map<uint64_t, uint64_t> counts;
    counts.reserve(ghost_fps_.size());
    for (uint64_t fp : ghost_fps_) ++counts[fp];
    for (uint64_t fp : primary_fps_) {
      auto it = counts.find(fp);
      if (it != counts.end() && it->second > 0) {
        --it->second;
        ++stat.matched;
      } else {
        ++stat.extra;
      }
    }
    RecordClosedSpan(stat);
    ++spans_completed_;
    ghost_total_ += stat.ghost;
    matched_total_ += stat.matched;
    unexpected_total_ += stat.extra;
  } else if (state_ == SpanState::kPoisoned) {
    ++spans_aborted_;
  }
  ghost_.reset();
  primary_fps_.clear();
  ghost_fps_.clear();
  state_ = SpanState::kIdle;
}

void ShadowOracle::NotePrimaryMatch(uint64_t fingerprint, Timestamp first_ts,
                                    Timestamp last_ts) {
  pending_.emplace_back(fingerprint, std::make_pair(first_ts, last_ts));
}

void ShadowOracle::DiscardPending() { pending_.clear(); }

void ShadowOracle::OnEventConsumed(const EventPtr& event) {
  const Timestamp ts = event->timestamp();
  if (ts < watermark_) {
    // Out-of-order input the primary chose to accept anyway; spans are
    // event-time monotone, so such events cannot be attributed.
    pending_.clear();
    return;
  }
  watermark_ = ts;
  const int64_t span = FloorDiv(ts, span_width_);
  if (state_ != SpanState::kIdle && span != span_id_) CloseSpan();
  if (state_ == SpanState::kIdle && span != span_id_ && SpanSampled(span)) {
    OpenSpan(span);
  }
  if (state_ != SpanState::kIdle) {
    for (const auto& m : pending_) {
      if (state_ == SpanState::kActive && m.second.first >= span_start_ &&
          m.second.second <= span_end_) {
        primary_fps_.push_back(m.first);
      }
    }
  }
  pending_.clear();
  if (state_ == SpanState::kActive) {
    if (!ghost_->ProcessEvent(event).ok()) {
      PoisonSpan();
      return;
    }
    ++events_mirrored_;
    if (ghost_->num_runs() > options_.max_ghost_runs) PoisonSpan();
  }
}

void ShadowOracle::Finish() {
  if (state_ != SpanState::kIdle) {
    // Primary flush-time emissions (deferred finals) belong to the open
    // span; attribute them before scoring so they mirror the ghost's own
    // flush inside CloseSpan.
    for (const auto& m : pending_) {
      if (state_ == SpanState::kActive && m.second.first >= span_start_ &&
          m.second.second <= span_end_) {
        primary_fps_.push_back(m.first);
      }
    }
    CloseSpan();
  }
  pending_.clear();
}

obs::WilsonInterval ShadowOracle::WindowedRecall() const {
  uint64_t matched = 0;
  uint64_t ghost = 0;
  for (size_t i = 0; i < ring_size_; ++i) {
    matched += ring_[i].matched;
    ghost += ring_[i].ghost;
  }
  return obs::WilsonScore(matched, ghost);
}

obs::WilsonInterval ShadowOracle::LifetimeRecall() const {
  return obs::WilsonScore(matched_total_, ghost_total_);
}

void ShadowOracle::Export(obs::Registry* registry,
                          const obs::LabelSet& labels) const {
  registry
      ->GetCounter("cep_shadow_spans_sampled_total",
                   "Event-time spans selected for shadowing", labels)
      ->Set(spans_sampled_);
  registry
      ->GetCounter("cep_shadow_spans_completed_total",
                   "Sampled spans scored against the ghost engine", labels)
      ->Set(spans_completed_);
  registry
      ->GetCounter("cep_shadow_spans_aborted_total",
                   "Sampled spans abandoned (ghost failure or run-set cap)",
                   labels)
      ->Set(spans_aborted_);
  registry
      ->GetCounter("cep_shadow_events_mirrored_total",
                   "Events fed to the unshed ghost engine", labels)
      ->Set(events_mirrored_);
  registry
      ->GetCounter("cep_shadow_ghost_matches_total",
                   "Ghost (unshed oracle) matches inside sampled spans",
                   labels)
      ->Set(ghost_total_);
  registry
      ->GetCounter("cep_shadow_matched_total",
                   "Primary matches confirmed by the ghost inside sampled "
                   "spans",
                   labels)
      ->Set(matched_total_);
  registry
      ->GetCounter("cep_shadow_unexpected_matches_total",
                   "Primary matches inside sampled spans with no ghost "
                   "counterpart (correctness alarm)",
                   labels)
      ->Set(unexpected_total_);
  const obs::WilsonInterval windowed = WindowedRecall();
  registry
      ->GetGauge("cep_shadow_recall_estimate",
                 "Estimated recall under shedding over the retained span "
                 "window",
                 labels)
      ->Set(windowed.center);
  registry
      ->GetGauge("cep_shadow_recall_lower",
                 "Wilson 95% lower bound of the windowed recall estimate",
                 labels)
      ->Set(windowed.lower);
  registry
      ->GetGauge("cep_shadow_recall_upper",
                 "Wilson 95% upper bound of the windowed recall estimate",
                 labels)
      ->Set(windowed.upper);
  registry
      ->GetGauge("cep_shadow_recall_lifetime",
                 "Estimated recall under shedding over every closed span",
                 labels)
      ->Set(LifetimeRecall().center);
}

std::string ShadowOracle::ToJson() const {
  const obs::WilsonInterval windowed = WindowedRecall();
  std::string out = "{";
  out += StrFormat("\"sample_every\":%llu",
                   static_cast<unsigned long long>(options_.sample_every));
  out += StrFormat(",\"span_width\":%lld",
                   static_cast<long long>(span_width_));
  out += StrFormat(",\"spans_sampled\":%llu",
                   static_cast<unsigned long long>(spans_sampled_));
  out += StrFormat(",\"spans_completed\":%llu",
                   static_cast<unsigned long long>(spans_completed_));
  out += StrFormat(",\"spans_aborted\":%llu",
                   static_cast<unsigned long long>(spans_aborted_));
  out += StrFormat(",\"events_mirrored\":%llu",
                   static_cast<unsigned long long>(events_mirrored_));
  out += StrFormat(",\"ghost_matches\":%llu",
                   static_cast<unsigned long long>(ghost_total_));
  out += StrFormat(",\"matched\":%llu",
                   static_cast<unsigned long long>(matched_total_));
  out += StrFormat(",\"unexpected\":%llu",
                   static_cast<unsigned long long>(unexpected_total_));
  out += ",\"recall_estimate\":" + obs::FormatMetricValue(windowed.center);
  out += ",\"recall_lower\":" + obs::FormatMetricValue(windowed.lower);
  out += ",\"recall_upper\":" + obs::FormatMetricValue(windowed.upper);
  out += ",\"recall_lifetime\":" +
         obs::FormatMetricValue(LifetimeRecall().center);
  out += "}";
  return out;
}

Status ShadowOracle::SerializeTo(ckpt::Sink& sink) const {
  sink.WriteU64(options_.sample_every);
  sink.WriteI64(span_width_);
  sink.WriteU64(options_.seed);
  sink.WriteU64(options_.max_ghost_runs);
  sink.WriteU64(options_.window_spans);
  sink.WriteU64(spans_sampled_);
  sink.WriteU64(spans_completed_);
  sink.WriteU64(spans_aborted_);
  sink.WriteU64(events_mirrored_);
  sink.WriteU64(ghost_total_);
  sink.WriteU64(matched_total_);
  sink.WriteU64(unexpected_total_);
  sink.WriteI64(watermark_);
  // Ring entries in logical oldest-to-newest order: the bytes are a pure
  // function of the retained stats, independent of the physical cursor.
  sink.WriteU64(ring_size_);
  const size_t cap = ring_.size();
  for (size_t i = 0; i < ring_size_; ++i) {
    const SpanStat& stat = ring_[(ring_pos_ + cap - ring_size_ + i) % cap];
    sink.WriteU64(stat.ghost);
    sink.WriteU64(stat.matched);
    sink.WriteU64(stat.extra);
  }
  sink.WriteU8(static_cast<uint8_t>(state_));
  // Serialized even when idle: it guards against re-opening (and therefore
  // double-counting) a span that was already closed before the checkpoint.
  sink.WriteI64(span_id_);
  if (state_ != SpanState::kIdle) {
    sink.WriteU64(primary_fps_.size());
    for (uint64_t fp : primary_fps_) sink.WriteU64(fp);
    sink.WriteU64(ghost_fps_.size());
    for (uint64_t fp : ghost_fps_) sink.WriteU64(fp);
  }
  if (state_ == SpanState::kActive) {
    // SerializeSnapshot drains the ghost's checkpoint pipeline (a no-op:
    // ghosts never checkpoint) — logically const for a quiescent engine.
    CEP_ASSIGN_OR_RETURN(
        const std::string blob,
        const_cast<Engine*>(ghost_.get())->SerializeSnapshot());
    sink.WriteString(blob);
  }
  return Status::OK();
}

Status ShadowOracle::RestoreFrom(ckpt::Source& source) {
  CEP_ASSIGN_OR_RETURN(const uint64_t sample_every, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(const int64_t span_width, source.ReadI64());
  CEP_ASSIGN_OR_RETURN(const uint64_t seed, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(const uint64_t max_ghost_runs, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(const uint64_t window_spans, source.ReadU64());
  if (sample_every != options_.sample_every || span_width != span_width_ ||
      seed != options_.seed || max_ghost_runs != options_.max_ghost_runs ||
      window_spans != options_.window_spans) {
    return Status::InvalidArgument(
        "shadow-oracle snapshot was taken under a different shadow "
        "configuration (sample_every/span_width/seed/max_ghost_runs/"
        "window_spans must match)");
  }
  CEP_ASSIGN_OR_RETURN(spans_sampled_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(spans_completed_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(spans_aborted_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(events_mirrored_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(ghost_total_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(matched_total_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(unexpected_total_, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(watermark_, source.ReadI64());
  CEP_ASSIGN_OR_RETURN(const uint64_t ring_size, source.ReadU64());
  if (ring_size > options_.window_spans) {
    return Status::DataLoss(StrFormat(
        "shadow snapshot ring holds %llu spans but window_spans is %llu",
        static_cast<unsigned long long>(ring_size),
        static_cast<unsigned long long>(options_.window_spans)));
  }
  ring_.assign(options_.window_spans, SpanStat{});
  ring_size_ = static_cast<size_t>(ring_size);
  ring_pos_ = ring_size_ % ring_.size();
  for (size_t i = 0; i < ring_size_; ++i) {
    CEP_ASSIGN_OR_RETURN(ring_[i].ghost, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(ring_[i].matched, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(ring_[i].extra, source.ReadU64());
  }
  CEP_ASSIGN_OR_RETURN(const uint8_t state, source.ReadU8());
  if (state > static_cast<uint8_t>(SpanState::kPoisoned)) {
    return Status::DataLoss("unknown shadow span state in snapshot");
  }
  state_ = static_cast<SpanState>(state);
  ghost_.reset();
  primary_fps_.clear();
  ghost_fps_.clear();
  pending_.clear();
  CEP_ASSIGN_OR_RETURN(span_id_, source.ReadI64());
  if (state_ != SpanState::kIdle) {
    span_start_ = span_id_ * span_width_;
    span_end_ = span_start_ + span_width_ - 1;
    CEP_ASSIGN_OR_RETURN(const uint64_t num_primary, source.ReadU64());
    primary_fps_.reserve(num_primary);
    for (uint64_t i = 0; i < num_primary; ++i) {
      CEP_ASSIGN_OR_RETURN(const uint64_t fp, source.ReadU64());
      primary_fps_.push_back(fp);
    }
    CEP_ASSIGN_OR_RETURN(const uint64_t num_ghost, source.ReadU64());
    ghost_fps_.reserve(num_ghost);
    for (uint64_t i = 0; i < num_ghost; ++i) {
      CEP_ASSIGN_OR_RETURN(const uint64_t fp, source.ReadU64());
      ghost_fps_.push_back(fp);
    }
  }
  if (state_ == SpanState::kActive) {
    CEP_ASSIGN_OR_RETURN(const std::string blob, source.ReadString());
    CEP_RETURN_NOT_OK(MakeGhost());
    CEP_RETURN_NOT_OK(ghost_->RestoreFromSnapshot(blob));
  }
  return Status::OK();
}

}  // namespace cep
