// Deterministic differential stress driver (docs/FUZZING.md).
//
// Generates seeded random (query x stream x shedder x batch/arena x
// checkpoint-interval) configurations and cross-checks, per configuration:
//
//  1. Oracle equality   — with shedding off, small stream, and
//                         skip-till-any-match, the engine's match
//                         fingerprints equal the brute-force oracle's
//                         (tests/oracle.cc, exhaustive recursion; no NFA).
//  2. Checkpoint resume — serializing mid-stream, restoring into a fresh
//                         engine, and replaying the tail yields the same
//                         final snapshot bytes and matches as the
//                         uninterrupted run.
//  3. Run conservation  — Engine::VerifyInvariants holds at every merge
//                         barrier, and the same ledger recomputed from the
//                         observability registry export balances; audit-log
//                         victims are a subset of shed-callback victims and
//                         total_appended == runs_shed.
//
// Everything is derived from --seed via split Rng streams (kVirtualCost
// latency, seeded shedders), so failures reproduce exactly:
//   stress_engine --configs 1000 --seed 7
// Exit code 0 means every configuration passed all oracles.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "oracle.h"
#include "engine/engine.h"
#include "engine/multi.h"
#include "event/csv.h"
#include "event/event.h"
#include "event/schema.h"
#include "nfa/compiler.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "service/client.h"
#include "service/server.h"
#include "service/tenant.h"
#include "shedding/registry.h"

namespace cep {
namespace {

// The oracle-backed query panel from tests/oracle_property_test.cc, plus a
// giant-WITHIN entry (index 9) that drives TimeSlicer into the range where
// (age * num_slices) used to overflow int64.
constexpr const char* kQueries[] = {
    "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 5 min",
    "PATTERN SEQ(req a, avail m, unlock c) "
    "WHERE m.loc >= a.loc, diff(c.loc, a.loc) < 20 WITHIN 5 min",
    "PATTERN SEQ(req a, avail+ b[], unlock c) "
    "WHERE diff(b[i].loc, a.loc) < 10, COUNT(b[]) > 1, c.uid = a.uid "
    "WITHIN 5 min",
    "PATTERN SEQ(req a, avail+ b[], unlock c) "
    "WHERE b[i].loc > b[i-1].loc, b[first].loc >= a.loc WITHIN 5 min",
    "PATTERN SEQ(req a, NOT avail x, unlock c) "
    "WHERE x.loc = a.loc, c.uid = a.uid WITHIN 5 min",
    "PATTERN SEQ(req a, avail+ b[]) "
    "WHERE diff(b[i].loc, a.loc) < 10, COUNT(b[]) > 1 WITHIN 5 min",
    "PATTERN SEQ(req a, NOT unlock x, avail m) "
    "WHERE x.uid = a.uid WITHIN 5 min",
    "PATTERN SEQ(req a, avail m, NOT unlock x) "
    "WHERE x.uid = a.uid, m.loc = a.loc WITHIN 5 min",
    "PATTERN SEQ(req a, avail+ b[], unlock c) "
    "WHERE diff(b[i].loc, a.loc) < 10, SUM(b[].loc) > 30, c.uid = a.uid "
    "WITHIN 5 min",
    "PATTERN SEQ(req a, avail+ b[], unlock c) "
    "WHERE diff(b[i].loc, a.loc) < 10, c.uid = a.uid WITHIN 2000000 hours",
};
constexpr int kNumQueries = static_cast<int>(std::size(kQueries));

/// One generated configuration; every field is a pure function of the
/// config ordinal and the global seed. The shedder axis iterates every
/// strategy the ShedderRegistry knows, so a newly registered strategy is
/// swept differentially without touching this driver.
struct StressConfig {
  uint64_t ordinal = 0;
  uint64_t stream_seed = 0;
  int query = 0;
  int num_events = 0;
  SelectionStrategy selection = SelectionStrategy::kSkipTillAnyMatch;
  std::string shedder = "none";
  size_t max_runs = 0;      ///< deterministic shed trigger (0 = off)
  size_t batch = 1;
  size_t arena_block = 0;
  size_t checkpoint_at = 0; ///< event index for the mid-stream snapshot
  bool giant_timestamps = false;  ///< spread events over huge spans

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "config #%llu: query=%d events=%d selection=%d shedder=%s "
                  "max_runs=%zu batch=%zu arena=%zu "
                  "ckpt@%zu giant_ts=%d stream_seed=%llu",
                  static_cast<unsigned long long>(ordinal), query, num_events,
                  static_cast<int>(selection), shedder.c_str(),
                  max_runs, batch, arena_block, checkpoint_at,
                  giant_timestamps ? 1 : 0,
                  static_cast<unsigned long long>(stream_seed));
    return buf;
  }
};

/// req(loc, uid), avail(loc, bid), unlock(loc, uid, bid) — the paper's
/// bike-share schema, mirrored from tests/test_util.h without gtest.
class Fixture {
 public:
  Fixture() {
    req_ = registry_.Register("req", {{"loc", ValueType::kInt},
                                      {"uid", ValueType::kInt}})
               .ValueOrDie();
    avail_ = registry_.Register("avail", {{"loc", ValueType::kInt},
                                          {"bid", ValueType::kInt}})
                 .ValueOrDie();
    unlock_ = registry_.Register("unlock", {{"loc", ValueType::kInt},
                                            {"uid", ValueType::kInt},
                                            {"bid", ValueType::kInt}})
                  .ValueOrDie();
  }

  const SchemaRegistry& registry() const { return registry_; }

  Result<NfaPtr> Compile(const char* text) const {
    auto parsed = ParseQuery(text);
    if (!parsed.ok()) return parsed.status();
    auto analyzed = Analyze(parsed.MoveValueUnsafe(), registry_);
    if (!analyzed.ok()) return analyzed.status();
    return CompileToNfa(analyzed.MoveValueUnsafe());
  }

  std::vector<EventPtr> MakeStream(const StressConfig& config) const {
    Rng rng(Mix64(config.stream_seed ^ 0x5eedu));
    std::vector<EventPtr> events;
    events.reserve(config.num_events);
    Timestamp ts = 0;
    uint64_t seq = 1;
    // Giant-timestamp mode spreads arrivals over ~half the int64 range so
    // run ages approach the huge WITHIN window of query 9.
    const Duration max_gap = config.giant_timestamps
                                 ? (int64_t{1} << 54)
                                 : 40 * kSecond;
    for (int i = 0; i < config.num_events; ++i) {
      ts += 1 + static_cast<Duration>(rng.NextBounded(max_gap));
      const auto loc = static_cast<int64_t>(rng.NextBounded(25));
      const auto uid = static_cast<int64_t>(rng.NextBounded(4));
      EventTypeId type;
      std::vector<Value> values;
      switch (rng.NextBounded(3)) {
        case 0:
          type = req_;
          values = {Value(loc), Value(uid)};
          break;
        case 1:
          type = avail_;
          values = {Value(loc), Value(static_cast<int64_t>(rng.NextBounded(50)))};
          break;
        default:
          type = unlock_;
          values = {Value(loc), Value(uid), Value(int64_t{1})};
          break;
      }
      events.push_back(std::make_shared<Event>(
          type, registry_.schema(type), ts, std::move(values), seq++));
    }
    return events;
  }

 private:
  SchemaRegistry registry_;
  EventTypeId req_ = 0, avail_ = 0, unlock_ = 0;
};

StressConfig MakeConfig(uint64_t seed, uint64_t ordinal) {
  Rng rng(Mix64(seed) ^ Mix64(ordinal * 0x9e3779b97f4a7c15ull + 1));
  StressConfig c;
  c.ordinal = ordinal;
  c.stream_seed = rng.Next();
  c.query = static_cast<int>(rng.NextBounded(kNumQueries));
  c.selection = static_cast<SelectionStrategy>(rng.NextBounded(3));
  // Name-sorted and deterministic, so the sweep reproduces across runs as
  // long as the registered strategy set is unchanged.
  static const std::vector<ShedderStrategyInfo> kStrategies =
      ShedderRegistry::ListStrategies();
  c.shedder = kStrategies[rng.NextBounded(kStrategies.size())].name;
  const bool oracle_eligible =
      c.shedder == "none" &&
      c.selection == SelectionStrategy::kSkipTillAnyMatch &&
      c.query < 9;  // the oracle recurses exhaustively — keep streams tiny
  c.num_events =
      oracle_eligible ? 8 + static_cast<int>(rng.NextBounded(7))
                      : 40 + static_cast<int>(rng.NextBounded(160));
  if (c.shedder != "none" && rng.NextBounded(2) == 0) {
    c.max_runs = 8 + rng.NextBounded(24);
  }
  // Two draws for axes this sweep no longer has; kept so a seed still
  // names the same configs.
  (void)rng.NextBounded(3);
  (void)rng.NextBounded(4);
  c.batch = 1 + rng.NextBounded(8);
  c.arena_block = rng.NextBounded(2) == 0 ? 0 : 64;
  c.checkpoint_at = 1 + rng.NextBounded(static_cast<uint64_t>(c.num_events));
  c.giant_timestamps = c.query == 9;
  return c;
}

EngineOptions MakeOptions(const StressConfig& config,
                          bool with_quality = false) {
  EngineOptions options;
  options.selection = config.selection;
  options.latency_mode = LatencyMode::kVirtualCost;  // deterministic µ(t)
  options.max_runs = config.max_runs;
  options.shed_amount.fraction = 0.4;
  options.shed_cooldown_events = 8;
  if (config.shedder != "none" && config.max_runs == 0) {
    // Latency-triggered shedding with a deterministic virtual clock.
    options.latency_threshold_micros = 50.0;
  }
  options.arena_block_runs = config.arena_block;
  options.batch_size = config.batch;
  if (with_quality) {
    // The --shadow axis: every span mirrored, with a small ghost cap so the
    // unshed ghost aborts (deterministically) on Kleene-exploding configs
    // instead of stalling the sweep.
    options.quality.shadow.sample_every = 1;
    options.quality.shadow.max_ghost_runs = 512;
    options.quality.calibration.enabled = true;
    options.quality.slo.enabled = true;
  }
  return options;
}

/// Flat `shedder=... key=val` spec fragment for one config. Used verbatim
/// both by the in-process engines (via the service spec parser) and inside
/// the --server `!query` spec, so the two construction paths cannot drift.
std::string BuildShedderSpec(const StressConfig& config) {
  // KvUint parses through ParseInt64, so the shedder seed must fit in 63
  // bits; every consumer of this spec sees the identical masked value.
  const uint64_t seed =
      Mix64(config.stream_seed ^ 0x5eedbeefu) & 0x7fffffffffffffffull;
  std::ostringstream spec;
  spec << "shedder=" << config.shedder;
  const bool seeded = config.shedder == "rbls" || config.shedder == "ibls" ||
                      config.shedder == "sbls" || config.shedder == "espice" ||
                      config.shedder == "hspice" ||
                      config.shedder == "hybrid";
  if (seeded) spec << " seed=" << seed;
  if (config.shedder == "ibls" || config.shedder == "espice" ||
      config.shedder == "hspice" || config.shedder == "hybrid") {
    spec << " drop=0.2";
  }
  if (config.shedder == "sbls") spec << " hash=req:loc slices=16";
  if (config.shedder == "pspice") spec << " slices=16";
  return spec.str();
}

ShedderPtr MakeShedder(const StressConfig& config,
                       const SchemaRegistry& registry) {
  auto kv = service::ParseKvSpec(BuildShedderSpec(config));
  return service::MakeShedderFromSpec(kv.ValueOrDie(), registry)
      .MoveValueUnsafe();
}

/// Everything a run of one engine produces that must be reproducible.
struct RunArtifacts {
  std::vector<uint64_t> fingerprints;  ///< in emission order
  std::string metrics;
  std::string snapshot;     ///< final snapshot bytes (full durable state)
  std::string audit_jsonl;
  std::vector<uint64_t> callback_victims;  ///< run ids via SetShedCallback
  uint64_t audit_appended = 0;
};

struct Failure {
  std::string config;
  std::string what;
};

#define STRESS_CHECK(cond, what)                         \
  do {                                                   \
    if (!(cond)) {                                       \
      failures->push_back({config.ToString(), (what)});  \
      return false;                                      \
    }                                                    \
  } while (0)

#define STRESS_OK(expr, what)                                             \
  do {                                                                    \
    const Status _st = (expr);                                            \
    if (!_st.ok()) {                                                      \
      failures->push_back({config.ToString(),                             \
                           std::string(what) + ": " + _st.ToString()});   \
      return false;                                                       \
    }                                                                     \
  } while (0)

/// Recomputes the conservation ledger from the observability export — the
/// registry is fed by the same field table that serializes metrics, so this
/// also guards the export path end to end.
bool RegistryInvariant(Engine& engine, const StressConfig& config,
                       std::vector<Failure>* failures) {
  obs::Registry registry;
  engine.ExportMetrics(&registry);
  const auto counter = [&registry](const char* name) {
    return registry.GetCounter(name, "")->value();
  };
  const uint64_t entered =
      counter("cep_runs_created_total") +
      (config.selection == SelectionStrategy::kSkipTillAnyMatch
           ? counter("cep_runs_extended_total")
           : 0);
  const uint64_t exited = counter("cep_runs_completed_total") +
                          counter("cep_runs_expired_total") +
                          counter("cep_runs_killed_total") +
                          counter("cep_runs_shed_total") +
                          counter("cep_runs_aborted_total");
  STRESS_CHECK(entered == exited + engine.runs().size(),
               "registry-recomputed run conservation violated");
  return true;
}

/// Runs `events` through one engine configuration; `restore_from` (when
/// non-null) seeds the engine from a snapshot and skips the consumed prefix.
bool RunEngine(const Fixture& fixture, const NfaPtr& nfa,
               const StressConfig& config,
               const std::vector<EventPtr>& events,
               const std::string* restore_from, size_t* checkpoint_at,
               std::string* checkpoint_bytes, RunArtifacts* out,
               std::vector<Failure>* failures, bool with_quality = false) {
  Engine engine(nfa, MakeOptions(config, with_quality),
                MakeShedder(config, fixture.registry()));
  obs::ShedAuditLog audit(1 << 12);
  engine.AttachAuditLog(&audit);
  RunArtifacts artifacts;
  engine.SetShedCallback(
      [&artifacts](const Run& run, const obs::ShedDecisionRecord&) {
        artifacts.callback_victims.push_back(run.id());
      });

  size_t start = 0;
  uint64_t restored_sheds = 0;
  if (restore_from != nullptr) {
    STRESS_OK(engine.RestoreFromSnapshot(*restore_from),
              "mid-stream restore failed");
    start = static_cast<size_t>(engine.stream_offset());
    STRESS_CHECK(start <= events.size(),
                 "restored stream offset beyond the stream");
    // The audit ring is itself a snapshot component, so pre-checkpoint
    // victims reappear in the restored ring but not in this engine's
    // shed callback.
    restored_sheds = engine.metrics().runs_shed;
  }
  for (size_t i = start; i < events.size(); ++i) {
    STRESS_OK(engine.OfferEvent(events[i]), "OfferEvent failed");
    STRESS_OK(engine.VerifyInvariants(), "merge-barrier invariant violated");
    if (checkpoint_at != nullptr && i + 1 == *checkpoint_at) {
      auto snap = engine.SerializeSnapshot();
      if (!snap.ok()) {
        failures->push_back({config.ToString(),
                             "mid-stream snapshot failed: " +
                                 snap.status().ToString()});
        return false;
      }
      *checkpoint_bytes = snap.MoveValueUnsafe();
    }
  }
  STRESS_OK(engine.Flush(), "Flush failed");
  STRESS_OK(engine.VerifyInvariants(), "post-Flush invariant violated");
  if (!RegistryInvariant(engine, config, failures)) return false;

  // Audit victims must be exactly the shed-callback victims (the log is
  // attached from the first event, and its ring is larger than any run
  // count this driver produces).
  artifacts.audit_appended = audit.total_appended();
  STRESS_CHECK(artifacts.audit_appended == engine.metrics().runs_shed,
               "audit total_appended != runs_shed");
  const auto records = audit.Snapshot();
  STRESS_CHECK(
      records.size() == artifacts.callback_victims.size() + restored_sheds,
      "audit ring lost records");
  for (size_t i = 0; i < artifacts.callback_victims.size(); ++i) {
    STRESS_CHECK(records[restored_sheds + i].run_id ==
                     artifacts.callback_victims[i],
                 "audit victim ids diverge from shed-callback victims");
  }

  for (const Match& m : engine.matches()) {
    artifacts.fingerprints.push_back(m.fingerprint);
  }
  artifacts.metrics = engine.metrics().ToString();
  artifacts.audit_jsonl = audit.ToJsonl();
  auto snapshot = engine.SerializeSnapshot();
  if (!snapshot.ok()) {
    failures->push_back({config.ToString(), "final snapshot failed: " +
                                                snapshot.status().ToString()});
    return false;
  }
  artifacts.snapshot = snapshot.MoveValueUnsafe();
  *out = std::move(artifacts);
  return true;
}

bool RunConfig(const Fixture& fixture, const StressConfig& config,
               std::vector<Failure>* failures, bool shadow_axis = false) {
  auto nfa = fixture.Compile(kQueries[config.query]);
  if (!nfa.ok()) {
    failures->push_back({config.ToString(),
                         "query failed to compile: " + nfa.status().ToString()});
    return false;
  }
  const std::vector<EventPtr> events = fixture.MakeStream(config);

  // Baseline (A): also produces the mid-stream checkpoint.
  size_t checkpoint_at = config.checkpoint_at;
  std::string checkpoint_bytes;
  RunArtifacts serial;
  if (!RunEngine(fixture, nfa.ValueOrDie(), config, events, nullptr,
                 &checkpoint_at, &checkpoint_bytes, &serial, failures)) {
    return false;
  }

  // Oracle equality (shedding off, STAM, tiny stream).
  if (config.shedder == "none" &&
      config.selection == SelectionStrategy::kSkipTillAnyMatch &&
      config.query < 9) {
    auto oracle = testing_util::OracleMatchFingerprints(*nfa.ValueOrDie(),
                                                        events);
    if (!oracle.ok()) {
      failures->push_back({config.ToString(),
                           "oracle failed: " + oracle.status().ToString()});
      return false;
    }
    std::vector<uint64_t> expected = oracle.MoveValueUnsafe();
    std::vector<uint64_t> actual = serial.fingerprints;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    STRESS_CHECK(actual == expected, "engine disagrees with brute-force oracle");
  }

  // Checkpoint/restore (B): resume from the mid-stream snapshot; the tail
  // must reproduce the uninterrupted run byte for byte.
  STRESS_CHECK(!checkpoint_bytes.empty(), "mid-stream checkpoint never taken");
  RunArtifacts resumed;
  if (!RunEngine(fixture, nfa.ValueOrDie(), config, events, &checkpoint_bytes,
                 nullptr, nullptr, &resumed, failures)) {
    return false;
  }
  // The resumed engine's shed callback only sees post-restore sheds, and the
  // pre-checkpoint audit records live in the restored log: compare the
  // durable artifacts, not the callback trace.
  STRESS_CHECK(resumed.fingerprints == serial.fingerprints,
               "resume: match fingerprints diverge");
  STRESS_CHECK(resumed.metrics == serial.metrics, "resume: metrics diverge");
  STRESS_CHECK(resumed.audit_jsonl == serial.audit_jsonl,
               "resume: audit JSONL diverges");
  STRESS_CHECK(resumed.snapshot == serial.snapshot,
               "resume: final snapshot bytes diverge");

  // Shadow non-interference (C, --shadow): a quality-enabled twin must
  // reproduce the baseline's primary artifacts exactly (snapshot bytes
  // excluded — the quality components add durable sections).
  if (shadow_axis) {
    RunArtifacts quality_serial;
    if (!RunEngine(fixture, nfa.ValueOrDie(), config, events, nullptr,
                   nullptr, nullptr, &quality_serial, failures,
                   /*with_quality=*/true)) {
      return false;
    }
    STRESS_CHECK(quality_serial.fingerprints == serial.fingerprints,
                 "shadow twin: match fingerprints diverge from baseline");
    STRESS_CHECK(quality_serial.metrics == serial.metrics,
                 "shadow twin: primary metrics diverge from baseline");
    STRESS_CHECK(quality_serial.audit_jsonl == serial.audit_jsonl,
                 "shadow twin: audit JSONL diverges from baseline");
    STRESS_CHECK(quality_serial.callback_victims == serial.callback_victims,
                 "shadow twin: shed victims diverge from baseline");
  }
  return true;
}

// ---------------------------------------------------------------------------
// --server mode: replay the seeded config sweep through a live cepshed
// server over its Unix socket and assert that the drained artifact files
// (matches, metrics, audit JSONL) are byte-identical to an in-process
// engine built from the same query spec. The reference engine is
// constructed with the service's own spec parsers, so a divergence isolates
// the transport/WAL/session path: framing, CSV round-trip, WAL sequence
// assignment, queue pumping, and drain.
// ---------------------------------------------------------------------------

/// The `!query` option spec reproducing MakeOptions + MakeShedder for one
/// config (errorbudget=0: the in-process engines run strict).
std::string BuildQuerySpec(const StressConfig& config) {
  std::ostringstream spec;
  spec << "selection=" << static_cast<int>(config.selection)
       << " fraction=0.4 cooldown=8 errorbudget=0"
       << " batch=" << config.batch << " arena=" << config.arena_block;
  if (config.max_runs > 0) spec << " maxruns=" << config.max_runs;
  const bool latency_shed = config.shedder != "none" && config.max_runs == 0;
  spec << " theta=" << (latency_shed ? 50 : 0);
  spec << ' ' << BuildShedderSpec(config);
  return spec.str();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

/// In-process reference: same spec, same events, no server in between.
struct ServiceArtifacts {
  std::string matches;
  std::string metrics;
  std::string audit_jsonl;
};

bool ReferenceArtifacts(const Fixture& fixture, const NfaPtr& nfa,
                        const std::string& spec,
                        const std::vector<EventPtr>& events,
                        const StressConfig& config, ServiceArtifacts* out,
                        std::vector<Failure>* failures) {
  auto kv = service::ParseKvSpec(spec);
  STRESS_OK(kv.status(), "reference spec failed to parse");
  auto options = service::MakeEngineOptionsFromSpec(kv.ValueOrDie(),
                                                    /*default_theta=*/0.0,
                                                    /*quota_bytes=*/0);
  STRESS_OK(options.status(), "reference options invalid");
  auto shedder =
      service::MakeShedderFromSpec(kv.ValueOrDie(), fixture.registry());
  STRESS_OK(shedder.status(), "reference shedder invalid");
  Engine engine(nfa, options.ValueOrDie(), shedder.MoveValueUnsafe());
  obs::ShedAuditLog audit(1 << 12);
  engine.AttachAuditLog(&audit);
  for (const EventPtr& event : events) {
    STRESS_OK(engine.OfferEvent(event), "reference OfferEvent failed");
  }
  STRESS_OK(engine.Flush(), "reference Flush failed");
  std::string matches;
  for (const Match& m : engine.matches()) {
    matches += service::FormatMatch(m, nfa->query());
    matches += '\n';
  }
  out->matches = std::move(matches);
  out->metrics = engine.metrics().ToString() + "\n";
  out->audit_jsonl = audit.ToJsonl();
  return true;
}

bool RunServerConfig(const Fixture& fixture, const StressConfig& config,
                     const std::string& base_dir,
                     std::vector<Failure>* failures) {
  auto nfa = fixture.Compile(kQueries[config.query]);
  if (!nfa.ok()) {
    failures->push_back({config.ToString(), "query failed to compile: " +
                                                nfa.status().ToString()});
    return false;
  }
  const std::vector<EventPtr> events = fixture.MakeStream(config);
  const std::string spec = BuildQuerySpec(config);

  ServiceArtifacts expected;
  if (!ReferenceArtifacts(fixture, nfa.ValueOrDie(), spec, events, config,
                          &expected, failures)) {
    return false;
  }

  const std::string tenant =
      "t" + std::to_string(static_cast<unsigned long long>(config.ordinal));
  const std::string dir =
      base_dir + "/cfg" +
      std::to_string(static_cast<unsigned long long>(config.ordinal));
  std::error_code ec;
  std::filesystem::create_directories(dir + "/root", ec);
  std::filesystem::create_directories(dir + "/out", ec);

  service::ServerOptions server_options;
  server_options.socket_path = dir + "/s.sock";
  server_options.root = dir + "/root";
  server_options.out_dir = dir + "/out";
  server_options.checkpoint_interval_events = 32;  // exercise async snapshots
  auto server = service::Server::Create(std::move(server_options));
  STRESS_OK(server.status(), "server failed to start");
  Status run_status;
  std::thread runner(
      [&] { run_status = server.ValueOrDie()->Run(); });

  const auto fail_and_stop = [&](const std::string& what, const Status& st) {
    server.ValueOrDie()->RequestStop();
    runner.join();
    failures->push_back({config.ToString(), what + ": " + st.ToString()});
    return false;
  };
  auto connected = service::BlockingClient::ConnectUnix(dir + "/s.sock");
  if (!connected.ok()) return fail_and_stop("connect", connected.status());
  const std::unique_ptr<service::BlockingClient> client =
      connected.MoveValueUnsafe();
  for (const std::string& command :
       {"!hello " + tenant, std::string("!schema req loc:int uid:int"),
        std::string("!schema avail loc:int bid:int"),
        std::string("!schema unlock loc:int uid:int bid:int"),
        "!query q0 " + spec + " :: " + kQueries[config.query]}) {
    auto reply = client->Command(command);
    if (!reply.ok()) return fail_and_stop("control command", reply.status());
  }
  // Stream the events, alternating text lines and binary frames so both
  // protocol paths carry real traffic.
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string line = EventToCsvLine(*events[i]);
    const Status sent =
        (i % 2 == 0) ? client->SendLine(line) : client->SendFrame(line);
    if (!sent.ok()) return fail_and_stop("event send", sent);
  }
  // Command replies are ordered after every queued event for this tenant,
  // so this barrier guarantees the server ingested the whole stream before
  // the drain starts.
  auto barrier = client->Command("!checkpoint");
  if (!barrier.ok()) return fail_and_stop("checkpoint barrier",
                                          barrier.status());
  server.ValueOrDie()->RequestStop();
  runner.join();
  STRESS_OK(run_status, "server drain failed");

  ServiceArtifacts actual;
  const std::string prefix = dir + "/out/" + tenant + "--q0";
  auto matches = ReadWholeFile(prefix + ".matches.csv");
  STRESS_OK(matches.status(), "drained matches missing");
  actual.matches = matches.MoveValueUnsafe();
  auto metrics = ReadWholeFile(prefix + ".metrics.txt");
  STRESS_OK(metrics.status(), "drained metrics missing");
  actual.metrics = metrics.MoveValueUnsafe();
  auto audit = ReadWholeFile(prefix + ".audit.jsonl");
  STRESS_OK(audit.status(), "drained audit missing");
  actual.audit_jsonl = audit.MoveValueUnsafe();

  STRESS_CHECK(actual.matches == expected.matches,
               "server: drained matches diverge from in-process engine");
  STRESS_CHECK(actual.metrics == expected.metrics,
               "server: drained metrics diverge from in-process engine");
  STRESS_CHECK(actual.audit_jsonl == expected.audit_jsonl,
               "server: drained audit JSONL diverges from in-process engine");
  std::filesystem::remove_all(dir, ec);
  return true;
}

// ---------------------------------------------------------------------------
// --multiquery mode: differential sweep of the multi-query optimizer
// (src/opt/, docs/OPTIMIZER.md). Each config registers several overlapping —
// partly duplicate — queries in one MultiEngine and checks that the
// optimized engine (DSE + cross-query predicate CSE + shared-prefix merging
// + pushdown) produces byte-identical per-query match fingerprints vs the
// unoptimized fan-out, that the optimized artifacts (including snapshot
// bytes) are identical across {1,4} fan-out threads and through
// batch-at-a-time feeding, and that a mid-stream
// checkpoint/restore of the optimized engine reproduces the uninterrupted
// run exactly. Shedding stays off on this axis: the optimizer changes cost
// accounting (skipped events, eliminated edges), so shed decisions — and
// therefore matches — may legitimately differ under it.
// ---------------------------------------------------------------------------

struct MultiArtifacts {
  std::vector<std::vector<uint64_t>> per_query;  ///< fingerprints, per query
  std::string snapshot;
};

bool RunMulti(const Fixture& fixture, const std::vector<int>& query_ids,
              const StressConfig& config, bool optimize, size_t threads,
              size_t batch, const std::vector<EventPtr>& events,
              const std::string* restore_from, size_t checkpoint_at,
              std::string* checkpoint_bytes, MultiArtifacts* out,
              std::vector<Failure>* failures) {
  MultiEngine multi;
  for (const int q : query_ids) {
    auto nfa = fixture.Compile(kQueries[q]);
    STRESS_OK(nfa.status(), "multiquery compile failed");
    EngineOptions options;
    options.selection = config.selection;
    options.latency_mode = LatencyMode::kVirtualCost;  // deterministic µ(t)
    multi.AddQuery(nfa.MoveValueUnsafe(), options);
  }
  if (threads > 1) multi.EnableParallel(threads);
  if (optimize) {
    STRESS_OK(multi.Optimize(), "Optimize failed");
  }
  size_t start = 0;
  if (restore_from != nullptr) {
    STRESS_OK(multi.RestoreFromSnapshot(*restore_from),
              "multiquery mid-stream restore failed");
    start = static_cast<size_t>(multi.stream_offset());
    STRESS_CHECK(start <= events.size(),
                 "multiquery restored offset beyond the stream");
  }
  if (batch <= 1) {
    for (size_t i = start; i < events.size(); ++i) {
      STRESS_OK(multi.OfferEvent(events[i]), "multiquery OfferEvent failed");
      if (checkpoint_bytes != nullptr && i + 1 == checkpoint_at) {
        auto snap = multi.SerializeSnapshot();
        if (!snap.ok()) {
          failures->push_back({config.ToString(),
                               "multiquery mid-stream snapshot failed: " +
                                   snap.status().ToString()});
          return false;
        }
        *checkpoint_bytes = snap.MoveValueUnsafe();
      }
    }
  } else {
    for (size_t i = start; i < events.size(); i += batch) {
      const size_t n = std::min(batch, events.size() - i);
      STRESS_OK(
          multi.ProcessBatch(std::span<const EventPtr>(events.data() + i, n)),
          "multiquery ProcessBatch failed");
    }
  }
  MultiArtifacts artifacts;
  artifacts.per_query.resize(multi.num_queries());
  for (size_t i = 0; i < multi.num_queries(); ++i) {
    for (const Match& m : multi.engine(i).matches()) {
      artifacts.per_query[i].push_back(m.fingerprint);
    }
  }
  auto snapshot = multi.SerializeSnapshot();
  if (!snapshot.ok()) {
    failures->push_back({config.ToString(), "multiquery final snapshot "
                                            "failed: " +
                                                snapshot.status().ToString()});
    return false;
  }
  artifacts.snapshot = snapshot.MoveValueUnsafe();
  *out = std::move(artifacts);
  return true;
}

bool RunMultiConfig(const Fixture& fixture, const StressConfig& config,
                    std::vector<Failure>* failures) {
  Rng rng(Mix64(config.stream_seed ^ 0x3617b1e5u));
  // Draw 3..6 queries with replacement from the non-giant panel: duplicates
  // are deliberate — they exercise shared-prefix merging, and overlapping
  // predicates across distinct queries exercise cross-query CSE.
  const size_t num_queries = 3 + rng.NextBounded(4);
  std::vector<int> query_ids;
  query_ids.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    query_ids.push_back(static_cast<int>(rng.NextBounded(kNumQueries - 1)));
  }
  const std::vector<EventPtr> events = fixture.MakeStream(config);
  const size_t checkpoint_at = config.checkpoint_at;

  // Unoptimized serial baseline.
  MultiArtifacts baseline;
  if (!RunMulti(fixture, query_ids, config, /*optimize=*/false, 1, 1,
                events, nullptr, 0, nullptr, &baseline, failures)) {
    return false;
  }

  // Optimized serial run; also takes the mid-stream checkpoint.
  std::string checkpoint_bytes;
  MultiArtifacts optimized;
  if (!RunMulti(fixture, query_ids, config, /*optimize=*/true, 1, 1,
                events, nullptr, checkpoint_at, &checkpoint_bytes, &optimized,
                failures)) {
    return false;
  }
  STRESS_CHECK(optimized.per_query == baseline.per_query,
               "multiquery: optimized per-query matches diverge from the "
               "unoptimized fan-out");

  // Fan-out threads: the optimized engine must reproduce its serial
  // artifacts (including snapshot bytes) on a 4-thread pool, and the
  // unoptimized fan-out must stay put too.
  MultiArtifacts opt_threaded;
  if (!RunMulti(fixture, query_ids, config, /*optimize=*/true, 4, 1, events,
                nullptr, 0, nullptr, &opt_threaded, failures)) {
    return false;
  }
  STRESS_CHECK(opt_threaded.per_query == optimized.per_query,
               "multiquery: optimized matches diverge across fan-out threads");
  STRESS_CHECK(opt_threaded.snapshot == optimized.snapshot,
               "multiquery: optimized snapshot bytes diverge across fan-out "
               "threads");
  MultiArtifacts unopt_threaded;
  if (!RunMulti(fixture, query_ids, config, /*optimize=*/false, 4, 1, events,
                nullptr, 0, nullptr, &unopt_threaded, failures)) {
    return false;
  }
  STRESS_CHECK(unopt_threaded.per_query == baseline.per_query,
               "multiquery: unoptimized matches diverge across fan-out "
               "threads");

  // Batch-at-a-time feeding drives SharedPredTable::BeginBatch.
  MultiArtifacts batched;
  const size_t batch = 2 + config.batch;
  if (!RunMulti(fixture, query_ids, config, /*optimize=*/true, 1, batch,
                events, nullptr, 0, nullptr, &batched, failures)) {
    return false;
  }
  STRESS_CHECK(batched.per_query == optimized.per_query,
               "multiquery: batch-fed optimized matches diverge");
  STRESS_CHECK(batched.snapshot == optimized.snapshot,
               "multiquery: batch-fed optimized snapshot bytes diverge");

  // Mid-stream checkpoint/restore of the optimized engine.
  STRESS_CHECK(!checkpoint_bytes.empty(),
               "multiquery mid-stream checkpoint never taken");
  MultiArtifacts resumed;
  if (!RunMulti(fixture, query_ids, config, /*optimize=*/true, 1, 1,
                events, &checkpoint_bytes, 0, nullptr, &resumed, failures)) {
    return false;
  }
  STRESS_CHECK(resumed.per_query == optimized.per_query,
               "multiquery resume: per-query matches diverge");
  STRESS_CHECK(resumed.snapshot == optimized.snapshot,
               "multiquery resume: final snapshot bytes diverge");
  return true;
}

#undef STRESS_CHECK
#undef STRESS_OK

}  // namespace
}  // namespace cep

int main(int argc, char** argv) {
  uint64_t configs = 100;
  uint64_t seed = 7;
  bool server_mode = false;
  bool shadow_axis = false;
  bool multiquery_mode = false;
  bool configs_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--configs") {
      configs = std::strtoull(next(), nullptr, 10);
      configs_set = true;
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--server") {
      server_mode = true;
    } else if (arg == "--shadow") {
      shadow_axis = true;
    } else if (arg == "--multiquery") {
      multiquery_mode = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--configs N] [--seed S] [--server] [--shadow] "
                   "[--multiquery]\n",
                   argv[0]);
      return 2;
    }
  }
  // Each --server config spins up (and tears down) a whole daemon, and each
  // --multiquery config runs ~10 full MultiEngine sweeps, so their default
  // sweeps are smaller than the in-process single-engine one.
  if (server_mode && !configs_set) configs = 20;
  if (multiquery_mode && !configs_set) configs = 30;

  cep::Fixture fixture;
  std::vector<cep::Failure> failures;
  uint64_t oracle_checked = 0;
  std::string server_dir;
  if (server_mode) {
    server_dir = "stress_server_tmp_" + std::to_string(seed) + "_" +
                 std::to_string(static_cast<long long>(::getpid()));
    std::error_code ec;
    std::filesystem::create_directories(server_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", server_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  for (uint64_t c = 0; c < configs; ++c) {
    const cep::StressConfig config = cep::MakeConfig(seed, c);
    if (multiquery_mode) {
      cep::RunMultiConfig(fixture, config, &failures);
    } else if (server_mode) {
      cep::RunServerConfig(fixture, config, server_dir, &failures);
    } else {
      if (config.shedder == "none" &&
          config.selection == cep::SelectionStrategy::kSkipTillAnyMatch &&
          config.query < 9) {
        ++oracle_checked;
      }
      cep::RunConfig(fixture, config, &failures, shadow_axis);
    }
    if ((c + 1) % 100 == 0) {
      std::fprintf(stderr, "  ... %llu/%llu configs, %zu failures\n",
                   static_cast<unsigned long long>(c + 1),
                   static_cast<unsigned long long>(configs), failures.size());
    }
  }
  if (server_mode && failures.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(server_dir, ec);
  }

  if (!failures.empty()) {
    std::fprintf(stderr, "%zu of %llu configs FAILED:\n", failures.size(),
                 static_cast<unsigned long long>(configs));
    for (const auto& f : failures) {
      std::fprintf(stderr, "  %s\n    %s\n", f.config.c_str(), f.what.c_str());
    }
    return 1;
  }
  if (multiquery_mode) {
    std::printf(
        "stress_engine: %llu multi-query configs passed (optimized vs "
        "unoptimized per-query matches byte-identical across fan-out "
        "threads, batch feeding, and checkpoint-resume), seed "
        "%llu\n",
        static_cast<unsigned long long>(configs),
        static_cast<unsigned long long>(seed));
    return 0;
  }
  if (server_mode) {
    std::printf(
        "stress_engine: %llu configs passed through the live server "
        "(drained artifacts byte-identical to in-process engines), seed "
        "%llu\n",
        static_cast<unsigned long long>(configs),
        static_cast<unsigned long long>(seed));
    return 0;
  }
  std::printf(
      "stress_engine: %llu configs passed (oracle cross-checked on %llu; "
      "checkpoint-resume and run-conservation on all%s), "
      "seed %llu\n",
      static_cast<unsigned long long>(configs),
      static_cast<unsigned long long>(oracle_checked),
      shadow_axis ? "; shadow twins non-interfering" : "",
      static_cast<unsigned long long>(seed));
  return 0;
}
