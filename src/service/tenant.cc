#include "service/tenant.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "ckpt/io.h"
#include "ckpt/snapshot.h"
#include "common/string_util.h"
#include "event/csv.h"
#include "nfa/compiler.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "shedding/registry.h"
#include "workload/bikeshare.h"
#include "workload/google_trace.h"
#include "workload/stock.h"

namespace cep {
namespace service {

namespace {

constexpr const char* kMetaMagic = "cepshed-tenant-meta v1";
constexpr const char* kMetaFile = "queries.meta";
constexpr const char* kWalFile = "wal.csv";
constexpr const char* kCkptDir = "ckpts";
constexpr const char* kCoreSection = "tenant.core";
constexpr const char* kQuerySectionPrefix = "query.";
constexpr uint32_t kCoreVersion = 1;

Result<uint64_t> KvUint(const std::map<std::string, std::string>& kv,
                        const std::string& key, uint64_t fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  CEP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(it->second));
  if (v < 0) {
    return Status::InvalidArgument("option " + key + " must be >= 0");
  }
  return static_cast<uint64_t>(v);
}

Result<double> KvDouble(const std::map<std::string, std::string>& kv,
                        const std::string& key, double fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  return ParseDouble(it->second);
}

Status WriteTextFileAtomic(const std::string& path, const std::string& text) {
  return ckpt::WriteFileAtomic(path, text);
}

}  // namespace

Result<std::map<std::string, std::string>> ParseKvSpec(
    std::string_view spec) {
  std::map<std::string, std::string> kv;
  std::istringstream in{std::string(spec)};
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::ParseError("expected k=v, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    if (!kv.emplace(key, token.substr(eq + 1)).second) {
      return Status::InvalidArgument("duplicate option '" + key + "'");
    }
  }
  return kv;
}

Result<EngineOptions> MakeEngineOptionsFromSpec(
    const std::map<std::string, std::string>& kv, double default_theta,
    size_t quota_bytes) {
  EngineOptions options;
  // Service invariants, not tenant choices: the virtual-cost clock makes
  // recovery byte-identical, collected matches are engine state so a
  // restored engine re-emits exactly what the interrupted one produced,
  // and checkpointing happens at the tenant level (atomic across engines).
  options.latency_mode = LatencyMode::kVirtualCost;
  options.collect_matches = true;
  CEP_ASSIGN_OR_RETURN(options.latency_threshold_micros,
                       KvDouble(kv, "theta", default_theta));
  CEP_ASSIGN_OR_RETURN(options.shed_amount.fraction,
                       KvDouble(kv, "fraction", options.shed_amount.fraction));
  CEP_ASSIGN_OR_RETURN(
      uint64_t cooldown,
      KvUint(kv, "cooldown", options.shed_cooldown_events));
  options.shed_cooldown_events = static_cast<size_t>(cooldown);
  CEP_ASSIGN_OR_RETURN(uint64_t max_runs, KvUint(kv, "maxruns", 0));
  options.max_runs = static_cast<size_t>(max_runs);
  CEP_ASSIGN_OR_RETURN(uint64_t selection, KvUint(kv, "selection", 0));
  if (selection > 2) {
    return Status::InvalidArgument("selection must be 0, 1, or 2");
  }
  options.selection = static_cast<SelectionStrategy>(selection);
  CEP_ASSIGN_OR_RETURN(uint64_t arena, KvUint(kv, "arena", 0));
  options.arena_block_runs = static_cast<size_t>(arena);
  CEP_ASSIGN_OR_RETURN(uint64_t batch, KvUint(kv, "batch", 1));
  options.batch_size = static_cast<size_t>(batch);
  // Poison events must not take down a tenant: the error budget is on by
  // default in service mode (errorbudget=0 opts out for strict engines).
  CEP_ASSIGN_OR_RETURN(uint64_t error_budget, KvUint(kv, "errorbudget", 64));
  options.error_budget.enabled = error_budget > 0;
  options.error_budget.max_consecutive_errors =
      static_cast<size_t>(error_budget);
  if (quota_bytes > 0) {
    options.degradation.enabled = true;
    options.degradation.run_bytes_budget = quota_bytes;
  }
  // Shedding-quality observability (docs/OBSERVABILITY.md): shadow=N
  // samples one span in N through the unshed ghost oracle, calibration=1
  // joins model predictions against run outcomes, slo=<frac> tracks θ
  // burn rates against that violation budget.
  CEP_ASSIGN_OR_RETURN(uint64_t shadow, KvUint(kv, "shadow", 0));
  options.quality.shadow.sample_every = static_cast<size_t>(shadow);
  CEP_ASSIGN_OR_RETURN(uint64_t shadow_width, KvUint(kv, "shadowwidth", 0));
  options.quality.shadow.span_width = static_cast<int64_t>(shadow_width);
  CEP_ASSIGN_OR_RETURN(uint64_t calibration, KvUint(kv, "calibration", 0));
  options.quality.calibration.enabled = calibration > 0;
  CEP_ASSIGN_OR_RETURN(double slo_budget, KvDouble(kv, "slo", 0.0));
  if (slo_budget > 0) {
    options.quality.slo.enabled = true;
    options.quality.slo.budget_fraction = slo_budget;
  }
  return options.Validated();
}

Result<ShedderPtr> MakeShedderFromSpec(
    const std::map<std::string, std::string>& kv,
    const SchemaRegistry& registry) {
  const auto it = kv.find("shedder");
  const std::string spec = it == kv.end() ? "none" : it->second;
  // The value may itself be an inline registry spec — "sbls(slices=32)" —
  // since flat-form values cannot contain whitespace. Parse it, then overlay
  // the remaining flat keys as strategy parameters (inline keys win); the
  // registry filters the merged map down to the strategy's own knobs, so
  // engine options travelling in the same kv map are ignored here.
  CEP_ASSIGN_OR_RETURN(auto parsed, ShedderRegistry::ParseSpec(spec));
  ShedderParams params = kv;
  params.erase("shedder");
  for (const auto& [key, value] : parsed.second) {
    params[key] = value;
  }
  ShedderEnv env;
  env.schema = &registry;
  return ShedderRegistry::MakeFromParams(parsed.first, params, env);
}

std::string FormatMatch(const Match& match, const ParsedQuery& query) {
  if (match.complex_event != nullptr) {
    return EventToCsvLine(*match.complex_event);
  }
  return match.ToString(query);
}

TenantSession::TenantSession(Config config) : config_(std::move(config)) {}

TenantSession::~TenantSession() = default;

std::string TenantSession::CheckpointDirectory() const {
  return config_.root + "/" + kCkptDir;
}

Result<TenantSession::MetaHeader> TenantSession::ReadMetaHeader(
    const std::string& root) {
  std::ifstream in(root + "/" + kMetaFile);
  if (!in) {
    return Status::NotFound("no tenant meta under '" + root + "'");
  }
  std::string line;
  if (!std::getline(in, line) || line != kMetaMagic) {
    return Status::ParseError("bad tenant meta magic under '" + root + "'");
  }
  MetaHeader header;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "theta") fields >> header.theta;
    if (key == "weight") fields >> header.weight;
  }
  return header;
}

Result<std::unique_ptr<TenantSession>> TenantSession::Create(Config config) {
  if (!ckpt::IsSafePathComponent(config.tenant)) {
    return Status::InvalidArgument("unsafe tenant name '" + config.tenant +
                                   "'");
  }
  std::unique_ptr<TenantSession> session(new TenantSession(std::move(config)));
  CEP_RETURN_NOT_OK(session->InitStorage());
  CEP_RETURN_NOT_OK(session->WriteMeta());
  return session;
}

Result<std::unique_ptr<TenantSession>> TenantSession::Recover(Config config) {
  std::unique_ptr<TenantSession> session(new TenantSession(std::move(config)));
  CEP_RETURN_NOT_OK(session->InitStorage());
  CEP_RETURN_NOT_OK(session->LoadMeta());
  CEP_RETURN_NOT_OK(session->RestoreAndReplay());
  return session;
}

Status TenantSession::InitStorage() {
  CEP_RETURN_NOT_OK(ckpt::EnsureDirectory(config_.root));
  CEP_RETURN_NOT_OK(ckpt::EnsureDirectory(CheckpointDirectory()));
  CEP_ASSIGN_OR_RETURN(
      wal_, Wal::Open(config_.root + "/" + kWalFile, config_.wal_sync));
  ckpt_ = std::make_unique<ckpt::CheckpointManager>(CheckpointDirectory(),
                                                    config_.ckpt_keep);
  return Status::OK();
}

Status TenantSession::WriteMeta() const {
  std::string text = kMetaMagic;
  text += '\n';
  text += StrFormat("theta %.17g\nweight %.17g\n", config_.theta,
                    config_.weight);
  for (const std::string& command : schema_commands_) {
    text += "schema " + command + "\n";
  }
  for (const auto& q : queries_) {
    text += StrFormat("query %s %llu %u %s :: %s\n", q->name.c_str(),
                      static_cast<unsigned long long>(q->birth_offset),
                      q->obs_id, q->spec.c_str(), q->text.c_str());
  }
  return WriteTextFileAtomic(config_.root + "/" + kMetaFile, text);
}

Status TenantSession::LoadMeta() {
  std::ifstream in(config_.root + "/" + kMetaFile);
  if (!in) {
    return Status::NotFound("no tenant meta under '" + config_.root + "'");
  }
  std::string line;
  if (!std::getline(in, line) || line != kMetaMagic) {
    return Status::ParseError("bad tenant meta magic under '" + config_.root +
                              "'");
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (StripWhitespace(line).empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "theta") {
      fields >> config_.theta;
    } else if (key == "weight") {
      fields >> config_.weight;
    } else if (key == "schema") {
      std::string rest;
      std::getline(fields, rest);
      std::vector<std::string> args;
      std::istringstream arg_stream(rest);
      std::string arg;
      while (arg_stream >> arg) args.push_back(arg);
      CEP_RETURN_NOT_OK(ApplySchemaCommand(args).WithContext(
          StrFormat("meta line %zu", line_no)));
    } else if (key == "query") {
      std::string name;
      uint64_t birth = 0;
      uint32_t obs_id = 0;
      fields >> name >> birth >> obs_id;
      std::string rest;
      std::getline(fields, rest);
      const size_t sep = rest.find(" :: ");
      if (!fields || sep == std::string::npos) {
        return Status::ParseError(
            StrFormat("meta line %zu: malformed query entry", line_no));
      }
      std::string spec{StripWhitespace(rest.substr(0, sep))};
      const std::string text = rest.substr(sep + 4);
      CEP_ASSIGN_OR_RETURN(auto query,
                           BuildQuery(name, spec, text, birth, obs_id));
      queries_.push_back(std::move(query));
      next_obs_id_ = std::max(next_obs_id_, obs_id + 1);
    } else {
      return Status::ParseError(
          StrFormat("meta line %zu: unknown key '%s'", line_no, key.c_str()));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<TenantSession::QueryState>> TenantSession::BuildQuery(
    const std::string& name, const std::string& spec, const std::string& text,
    uint64_t birth_offset, uint32_t obs_id) {
  if (!ckpt::IsSafePathComponent(name)) {
    return Status::InvalidArgument("unsafe query name '" + name + "'");
  }
  CEP_ASSIGN_OR_RETURN(auto kv, ParseKvSpec(spec));
  CEP_ASSIGN_OR_RETURN(
      EngineOptions options,
      MakeEngineOptionsFromSpec(kv, config_.theta, config_.quota_bytes));
  CEP_ASSIGN_OR_RETURN(ShedderPtr shedder,
                       MakeShedderFromSpec(kv, registry_));
  CEP_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
  CEP_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                       Analyze(std::move(parsed), registry_));
  CEP_ASSIGN_OR_RETURN(NfaPtr nfa, CompileToNfa(std::move(analyzed)));
  auto query = std::make_unique<QueryState>();
  query->name = name;
  query->spec = spec;
  query->text = text;
  query->birth_offset = birth_offset;
  query->obs_id = obs_id;
  query->nfa = nfa;
  query->audit = std::make_unique<obs::ShedAuditLog>(config_.audit_capacity);
  query->engine =
      std::make_unique<Engine>(std::move(nfa), options, std::move(shedder));
  query->engine->SetObsId(obs_id);
  query->engine->AttachAuditLog(query->audit.get());
  return query;
}

Status TenantSession::RestoreAndReplay() {
  uint64_t snapshot_offset = 0;
  auto latest = ckpt::CheckpointManager::FindLatest(CheckpointDirectory());
  if (latest.ok()) {
    CEP_ASSIGN_OR_RETURN(std::string bytes,
                         ckpt::ReadFileBytes(latest.ValueOrDie()));
    CEP_ASSIGN_OR_RETURN(ckpt::SnapshotView view, ckpt::ParseSnapshot(bytes));
    snapshot_offset = view.stream_offset;
    const ckpt::SnapshotSection* core = view.Find(kCoreSection);
    if (core == nullptr) {
      return Status::DataLoss("tenant snapshot missing " +
                              std::string(kCoreSection));
    }
    ckpt::Source source(core->payload);
    CEP_ASSIGN_OR_RETURN(uint32_t version, source.ReadU32());
    if (version != kCoreVersion) {
      return Status::DataLoss(
          StrFormat("tenant core section version %u, want %u", version,
                    kCoreVersion));
    }
    CEP_ASSIGN_OR_RETURN(quarantined_, source.ReadU64());
    for (auto& q : queries_) {
      const ckpt::SnapshotSection* section =
          view.Find(kQuerySectionPrefix + q->name);
      if (section == nullptr) continue;  // query born after this snapshot
      CEP_RETURN_NOT_OK(
          q->engine->RestoreFromSnapshot(section->payload)
              .WithContext("restoring query '" + q->name + "'"));
    }
  } else if (!latest.status().IsNotFound()) {
    return latest.status();
  }
  // Lockstep WAL replay. Each engine resumes at birth_offset +
  // stream_offset() — the tenant snapshot is atomic, so every engine
  // restored above resumes at snapshot_offset, and engines born later
  // resume at their birth. Feed each tail record only to engines that have
  // not consumed it.
  uint64_t replay_after = wal_->count();
  for (const auto& q : queries_) {
    replay_after =
        std::min(replay_after, q->birth_offset + q->engine->stream_offset());
  }
  if (queries_.empty()) replay_after = wal_->count();
  CEP_RETURN_NOT_OK(wal_->Replay(
      replay_after, [&](uint64_t ordinal, std::string_view record) -> Status {
        CEP_ASSIGN_OR_RETURN(EventPtr event,
                             EventFromCsvLine(registry_, record, ordinal));
        for (auto& q : queries_) {
          if (ordinal <= q->birth_offset + q->engine->stream_offset()) {
            continue;
          }
          CEP_RETURN_NOT_OK(q->engine->OfferEvent(event).WithContext(
              StrFormat("WAL replay record %llu query '%s'",
                        static_cast<unsigned long long>(ordinal),
                        q->name.c_str())));
        }
        RefreshSharedPressure();
        return Status::OK();
      }));
  events_since_ckpt_ = wal_->count() - snapshot_offset;
  return Status::OK();
}

Status TenantSession::ApplySchemaCommand(
    const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("schema command needs arguments");
  }
  std::string command = args[0];
  for (size_t i = 1; i < args.size(); ++i) command += " " + args[i];
  if (std::find(schema_commands_.begin(), schema_commands_.end(), command) !=
      schema_commands_.end()) {
    return Status::OK();  // idempotent re-send (client resume)
  }
  if (args.size() == 1) {
    if (args[0] == "cluster") {
      CEP_RETURN_NOT_OK(GoogleTraceGenerator::RegisterSchemas(&registry_));
    } else if (args[0] == "bike") {
      CEP_RETURN_NOT_OK(BikeShareGenerator::RegisterSchemas(&registry_));
    } else if (args[0] == "stock") {
      CEP_RETURN_NOT_OK(StockGenerator::RegisterSchemas(&registry_));
    } else {
      return Status::InvalidArgument(
          "schema with one argument must name a builtin bundle "
          "(cluster|bike|stock); to register a type, pass attr:type pairs");
    }
  } else {
    std::vector<AttributeDef> attrs;
    for (size_t i = 1; i < args.size(); ++i) {
      const size_t colon = args[i].find(':');
      if (colon == std::string::npos) {
        return Status::ParseError("schema expects attr:type, got '" +
                                  args[i] + "'");
      }
      const std::string type_name = args[i].substr(colon + 1);
      ValueType vt;
      if (type_name == "int") {
        vt = ValueType::kInt;
      } else if (type_name == "double") {
        vt = ValueType::kDouble;
      } else if (type_name == "string") {
        vt = ValueType::kString;
      } else if (type_name == "bool") {
        vt = ValueType::kBool;
      } else {
        return Status::ParseError("unknown attribute type '" + type_name +
                                  "'");
      }
      attrs.push_back(AttributeDef{args[i].substr(0, colon), vt});
    }
    CEP_RETURN_NOT_OK(registry_.Register(args[0], std::move(attrs)).status());
  }
  schema_commands_.push_back(std::move(command));
  return WriteMeta();
}

Status TenantSession::AddQuery(const std::string& name,
                               const std::string& spec,
                               const std::string& text) {
  for (const auto& q : queries_) {
    if (q->name == name) {
      if (q->text == text && q->spec == spec) return Status::OK();
      return Status::AlreadyExists("query '" + name +
                                   "' exists with a different definition");
    }
  }
  CEP_ASSIGN_OR_RETURN(
      auto query, BuildQuery(name, spec, text, wal_->count(), next_obs_id_));
  ++next_obs_id_;
  queries_.push_back(std::move(query));
  RefreshSharedPressure();
  return WriteMeta();
}

Status TenantSession::DropQuery(const std::string& name) {
  const auto it = std::find_if(
      queries_.begin(), queries_.end(),
      [&name](const std::unique_ptr<QueryState>& q) { return q->name == name; });
  if (it == queries_.end()) {
    return Status::NotFound("no query '" + name + "'");
  }
  queries_.erase(it);
  RefreshSharedPressure();
  return WriteMeta();
}

Status TenantSession::IngestLine(std::string_view line) {
  const uint64_t ordinal = wal_->count() + 1;
  auto parsed = EventFromCsvLine(registry_, line, ordinal);
  if (!parsed.ok()) {
    ++quarantined_;
    last_error_ = parsed.status().ToString();
    return parsed.status();
  }
  if (line.find('\n') != std::string_view::npos) {
    // Multi-line quoted records cannot ride the line-oriented WAL; the
    // client must send them without embedded newlines.
    ++quarantined_;
    Status st = Status::InvalidArgument(
        "event records with embedded newlines are not supported in service "
        "mode");
    last_error_ = st.ToString();
    return st;
  }
  // WAL before processing: once an engine has seen the event, a crash must
  // replay it — so it must already be on disk.
  CEP_RETURN_NOT_OK(wal_->Append(line));
  const EventPtr event = parsed.MoveValueUnsafe();
  for (auto& q : queries_) {
    CEP_RETURN_NOT_OK(q->engine->OfferEvent(event).WithContext(
        "query '" + q->name + "'"));
  }
  RefreshSharedPressure();
  ++events_since_ckpt_;
  if (config_.checkpoint_interval_events > 0 &&
      events_since_ckpt_ >= config_.checkpoint_interval_events) {
    CEP_RETURN_NOT_OK(Checkpoint(/*synchronous=*/false));
  }
  return Status::OK();
}

void TenantSession::RefreshSharedPressure() {
  if (config_.quota_bytes == 0) return;
  size_t total = 0;
  for (const auto& q : queries_) total += q->engine->approx_run_bytes();
  for (auto& q : queries_) {
    q->engine->SetExternalRunBytes(total - q->engine->approx_run_bytes());
  }
}

Status TenantSession::Checkpoint(bool synchronous) {
  // Engines encode in place inside the tenant snapshot; digests and CRCs are
  // left to the background writer unless the caller waits for the write.
  ckpt::SnapshotBuilder builder(wal_->count(),
                                last_snapshot_bytes_ + last_snapshot_bytes_ / 8);
  ckpt::Sink core;
  core.WriteU32(kCoreVersion);
  core.WriteU64(quarantined_);
  builder.AddSection(kCoreSection, core.bytes());
  for (auto& q : queries_) {
    CEP_RETURN_NOT_OK(q->engine->WriteSnapshotSection(
        builder, kQuerySectionPrefix + q->name));
  }
  ckpt::UnsealedSnapshot snapshot = builder.FinishUnsealed();
  last_snapshot_bytes_ = snapshot.size();
  events_since_ckpt_ = 0;
  if (synchronous) {
    // A pending async snapshot at this same WAL offset would share the
    // .tmp path with WriteNow; wait it out so the rename cannot race.
    CEP_RETURN_NOT_OK(ckpt_->Flush());
    return ckpt_->WriteNow(std::move(snapshot).Seal(), wal_->count());
  }
  ckpt_->SubmitAsync(std::move(snapshot), wal_->count());
  return Status::OK();
}

Status TenantSession::Drain(const std::string& out_dir) {
  for (auto& q : queries_) {
    CEP_RETURN_NOT_OK(
        q->engine->Flush().WithContext("flushing query '" + q->name + "'"));
  }
  CEP_RETURN_NOT_OK(Checkpoint(/*synchronous=*/true));
  CEP_RETURN_NOT_OK(ckpt_->Flush());
  CEP_RETURN_NOT_OK(ckpt::EnsureDirectory(out_dir));
  const std::string prefix = out_dir + "/" + config_.tenant;
  for (const auto& q : queries_) {
    std::string matches;
    for (const Match& match : q->engine->matches()) {
      matches += FormatMatch(match, q->engine->nfa().query());
      matches += '\n';
    }
    CEP_RETURN_NOT_OK(WriteTextFileAtomic(
        prefix + "--" + q->name + ".matches.csv", matches));
    CEP_RETURN_NOT_OK(
        WriteTextFileAtomic(prefix + "--" + q->name + ".metrics.txt",
                            q->engine->metrics().ToString() + "\n"));
    CEP_RETURN_NOT_OK(WriteTextFileAtomic(
        prefix + "--" + q->name + ".audit.jsonl", q->audit->ToJsonl()));
  }
  obs::Registry registry;
  ExportMetrics(&registry);
  CEP_RETURN_NOT_OK(WriteTextFileAtomic(prefix + ".metrics.prom",
                                        registry.ToPrometheusText()));
  return Status::OK();
}

size_t TenantSession::TotalRunBytes() const {
  size_t total = 0;
  for (const auto& q : queries_) total += q->engine->approx_run_bytes();
  return total;
}

std::string TenantSession::StatsText() const {
  std::string out = StrFormat(
      "tenant=%s ingested=%llu quarantined=%llu run_bytes=%zu\n",
      config_.tenant.c_str(), static_cast<unsigned long long>(wal_->count()),
      static_cast<unsigned long long>(quarantined_), TotalRunBytes());
  for (const auto& q : queries_) {
    out += StrFormat("query=%s %s\n", q->name.c_str(),
                     q->engine->metrics().ToString().c_str());
    if (q->engine->options().quality.any_enabled()) {
      out += StrFormat("quality=%s %s\n", q->name.c_str(),
                       q->engine->ExportQualityJson().c_str());
    }
  }
  return out;
}

void TenantSession::ExportMetrics(obs::Registry* registry) const {
  for (const auto& q : queries_) {
    q->engine->ExportMetrics(
        registry, {{"tenant", config_.tenant}, {"query", q->name}});
  }
  registry
      ->GetCounter("cep_tenant_ingested_total",
                   "Events appended to the tenant WAL",
                   {{"tenant", config_.tenant}})
      ->Set(wal_->count());
  registry
      ->GetCounter("cep_tenant_quarantined_total",
                   "Records quarantined before the WAL (parse errors)",
                   {{"tenant", config_.tenant}})
      ->Set(quarantined_);
  registry
      ->GetGauge("cep_tenant_run_bytes", "Run-set bytes across the tenant",
                 {{"tenant", config_.tenant}})
      ->Set(static_cast<double>(TotalRunBytes()));
}

std::vector<std::string> TenantSession::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& q : queries_) names.push_back(q->name);
  return names;
}

Engine* TenantSession::FindEngine(const std::string& name) {
  for (auto& q : queries_) {
    if (q->name == name) return q->engine.get();
  }
  return nullptr;
}

}  // namespace service
}  // namespace cep
