#ifndef CEPSHED_SERVICE_TENANT_H_
#define CEPSHED_SERVICE_TENANT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/manager.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/engine.h"
#include "event/schema.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "query/ast.h"
#include "service/wal.h"

namespace cep {
namespace service {

/// Parses a "k=v k=v ..." option spec (whitespace-separated, no quoting).
/// Duplicate keys are an error.
Result<std::map<std::string, std::string>> ParseKvSpec(std::string_view spec);

/// Builds the engine options for one tenant query from a parsed kv spec.
/// Service engines are forced onto the deterministic virtual-cost latency
/// clock with match collection on and engine-level checkpointing off (the
/// session checkpoints all of a tenant's engines atomically); `quota_bytes`
/// > 0 enables the degradation ladder with that byte budget.
///
/// Recognised keys: theta fraction cooldown maxruns selection threads
/// shards minparallel batch arena errorbudget (plus the shedder keys below,
/// which MakeShedderFromSpec consumes).
Result<EngineOptions> MakeEngineOptionsFromSpec(
    const std::map<std::string, std::string>& kv, double default_theta,
    size_t quota_bytes);

/// Builds the shedder for one tenant query. Keys: shedder (none|rbls|ttl|
/// ibls|sbls), seed, drop, hash (type:attr[,type:attr...]), bucket, slices,
/// wplus, wminus. Mirrors the cepshed_cli / stress_engine constructions so
/// a spec reproduces an in-process engine exactly.
Result<ShedderPtr> MakeShedderFromSpec(
    const std::map<std::string, std::string>& kv,
    const SchemaRegistry& registry);

/// One emitted match, formatted exactly as cepshed_cli --matches writes it
/// (complex event CSV when present, match.ToString otherwise).
std::string FormatMatch(const Match& match, const ParsedQuery& query);

/// \brief One tenant's whole world inside the server: its schema registry,
/// WAL, per-query engines, audit logs, atomic tenant snapshot, and drain
/// artifacts. See docs/SERVICE.md.
///
/// Exactly-once recovery contract: every parse-valid event is appended to
/// the WAL *before* any engine sees it; a tenant snapshot captures all of
/// the tenant's engines at one WAL offset; Recover() restores the newest
/// valid snapshot and replays only the WAL tail each engine has not yet
/// consumed. Because engines run the deterministic virtual-cost clock, the
/// recovered tenant's matches, metrics, and audit trail are byte-identical
/// to an uninterrupted run.
class TenantSession {
 public:
  struct Config {
    std::string tenant;
    std::string root;   ///< per-tenant state directory
    double theta = 0.0;   ///< default latency budget for this tenant's queries
    double weight = 0.0;  ///< quota weight actually reserved
    size_t quota_bytes = 0;  ///< degradation byte budget (0 = unlimited)
    size_t ckpt_keep = 3;
    size_t checkpoint_interval_events = 256;  ///< 0 = explicit/drain only
    bool wal_sync = false;
    size_t audit_capacity = 1 << 12;
  };

  /// Fields persisted in the tenant meta file that the server must know
  /// before it can build a Config (weight feeds the quota allocator).
  struct MetaHeader {
    double theta = 0.0;
    double weight = 0.0;
  };
  static Result<MetaHeader> ReadMetaHeader(const std::string& root);

  /// Fresh tenant: creates the state directory, an empty WAL, and the meta
  /// file.
  static Result<std::unique_ptr<TenantSession>> Create(Config config);

  /// Crash recovery: rebuilds schema and queries from the meta file,
  /// restores the newest valid tenant snapshot, and replays the WAL tail
  /// through each engine.
  static Result<std::unique_ptr<TenantSession>> Recover(Config config);

  ~TenantSession();
  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  /// `!schema` command body: either one builtin bundle name (cluster, bike,
  /// stock) or `<type> attr:type ...` registering one event type.
  /// Idempotent for a command already applied verbatim.
  Status ApplySchemaCommand(const std::vector<std::string>& args);

  /// Adds a query compiled from SASE `text` with options from `spec`
  /// ("k=v ..."). The engine is born at the current WAL offset: it only
  /// ever sees events ingested after this call. Idempotent when `name`
  /// exists with identical text+spec; AlreadyExists otherwise.
  Status AddQuery(const std::string& name, const std::string& spec,
                  const std::string& text);

  /// Removes a query and its engine (its past matches are gone with it).
  Status DropQuery(const std::string& name);

  /// Ingests one event CSV record: parse, WAL-append, offer to every
  /// engine, refresh the shared-budget pressure each engine feels. A parse
  /// failure quarantines the record (counted, session stays healthy) and
  /// returns the parse status so the caller can report it.
  Status IngestLine(std::string_view line);

  /// Writes a tenant snapshot now (synchronous) or hands it to the
  /// background writer.
  Status Checkpoint(bool synchronous);

  /// Terminal drain: Flush() every engine (emit runs parked at deferred
  /// final states), write a final synchronous snapshot, then write the
  /// artifact files into `out_dir`:
  ///   <tenant>--<query>.matches.csv
  ///   <tenant>--<query>.metrics.txt
  ///   <tenant>--<query>.audit.jsonl
  ///   <tenant>.metrics.prom
  Status Drain(const std::string& out_dir);

  /// Events ingested into the WAL so far — the resume point a client uses
  /// after reconnecting.
  uint64_t ingested() const { return wal_->count(); }

  /// Parse-quarantined records (never reached the WAL or any engine).
  uint64_t quarantined() const { return quarantined_; }
  const std::string& last_error() const { return last_error_; }

  /// Total run-set bytes across this tenant's engines (the quota signal).
  size_t TotalRunBytes() const;

  /// Per-engine metrics lines for the `!stats` reply.
  std::string StatsText() const;

  /// Exports every engine's metrics labelled {tenant, query}, plus
  /// tenant-level ingest/quarantine counters.
  void ExportMetrics(obs::Registry* registry) const;

  const std::string& tenant() const { return config_.tenant; }
  double theta() const { return config_.theta; }
  double weight() const { return config_.weight; }
  size_t num_queries() const { return queries_.size(); }
  std::vector<std::string> QueryNames() const;

  /// The engine behind `name` (tests, bench). Null when absent.
  Engine* FindEngine(const std::string& name);

 private:
  struct QueryState {
    std::string name;
    std::string spec;
    std::string text;
    uint64_t birth_offset = 0;  ///< WAL count when the query was added
    uint32_t obs_id = 0;        ///< stable audit/trace identity
    NfaPtr nfa;
    std::unique_ptr<obs::ShedAuditLog> audit;
    std::unique_ptr<Engine> engine;
  };

  explicit TenantSession(Config config);

  Status InitStorage();
  Status WriteMeta() const;
  Status LoadMeta();
  Status RestoreAndReplay();
  Result<std::unique_ptr<QueryState>> BuildQuery(const std::string& name,
                                                 const std::string& spec,
                                                 const std::string& text,
                                                 uint64_t birth_offset,
                                                 uint32_t obs_id);
  /// Re-points every engine's external-bytes signal at the rest of the
  /// tenant (total minus its own), so the shared quota squeezes all of a
  /// tenant's engines together.
  void RefreshSharedPressure();
  std::string CheckpointDirectory() const;

  Config config_;
  std::vector<std::string> schema_commands_;
  SchemaRegistry registry_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<ckpt::CheckpointManager> ckpt_;
  std::vector<std::unique_ptr<QueryState>> queries_;
  uint32_t next_obs_id_ = 0;
  uint64_t quarantined_ = 0;
  uint64_t events_since_ckpt_ = 0;
  size_t last_snapshot_bytes_ = 0;  ///< buffer size hint for the next one
  std::string last_error_;
};

}  // namespace service
}  // namespace cep

#endif  // CEPSHED_SERVICE_TENANT_H_
