// Strategy-conformance suite: every shedder the ShedderRegistry knows is
// held to the engine's reproducibility contracts, so a newly registered
// strategy is conformance-checked without touching this file. Per strategy:
//
//  1. Determinism      — two identical serial runs produce byte-identical
//                        artifacts (matches, metrics, audit JSONL, final
//                        snapshot bytes).
//  2. Thread identity  — the strategy's engine run alone and as one of 1 or
//                        4 engines on a 1- or 4-thread MultiEngine fan-out
//                        produces byte-identical artifacts (engines share
//                        no mutable state; each evaluates serially).
//  3. Resume identity  — checkpoint mid-stream (while shed episodes are
//                        firing), restore into a fresh engine, replay the
//                        tail: final artifacts are byte-identical.
//  4. Conservation     — Engine::VerifyInvariants holds after every event
//                        under sustained shedding pressure.
//
// Plus unit tests for the registry itself (spec parsing, strict key
// validation, the hybrid composition rules) and for the widened
// ShedDecision (one probe decision can drop the event AND shed runs).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/multi.h"
#include "obs/audit.h"
#include "shedding/hybrid_shedder.h"
#include "shedding/registry.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

constexpr const char* kQuery =
    "PATTERN SEQ(req a, avail+ b[], unlock c) "
    "WHERE diff(b[i].loc, a.loc) < 10, c.uid = a.uid WITHIN 5 min";

/// Inline spec exercising each strategy's own knobs at a fixed seed. Bare
/// names fall through (none, ttl — knobless strategies).
std::string SpecFor(const std::string& name) {
  if (name == "rbls") return "rbls(seed=99)";
  if (name == "ibls") return "ibls(seed=99,drop=0.3)";
  if (name == "sbls") return "sbls(seed=99,hash=req:loc,slices=8)";
  if (name == "espice") return "espice(seed=99,drop=0.3,buckets=8)";
  if (name == "hspice") return "hspice(seed=99,drop=0.3)";
  if (name == "pspice") return "pspice(slices=8)";
  if (name == "hybrid") return "hybrid(seed=99,drop=0.3,slices=8)";
  return name;
}

std::vector<std::string> RegisteredNames() {
  std::vector<std::string> names;
  for (const ShedderStrategyInfo& info : ShedderRegistry::ListStrategies()) {
    names.push_back(info.name);
  }
  return names;
}

/// Seeded bike-share stream dense enough that max_runs + θ overload keep
/// shed episodes firing throughout the run.
std::vector<EventPtr> MakeStream(BikeSchema* schema, int num_events) {
  Rng rng(0xc0f0e5);
  std::vector<EventPtr> events;
  events.reserve(num_events);
  Timestamp ts = 0;
  for (int i = 0; i < num_events; ++i) {
    ts += 1 + static_cast<Duration>(rng.NextBounded(20 * kSecond));
    const auto loc = static_cast<int64_t>(rng.NextBounded(12));
    const auto uid = static_cast<int64_t>(rng.NextBounded(4));
    switch (rng.NextBounded(3)) {
      case 0:
        events.push_back(schema->Req(ts, loc, uid));
        break;
      case 1:
        events.push_back(schema->Avail(
            ts, loc, static_cast<int64_t>(rng.NextBounded(50))));
        break;
      default:
        events.push_back(schema->Unlock(ts, loc, uid, 1));
        break;
    }
  }
  return events;
}

EngineOptions ConformanceOptions() {
  EngineOptions options;
  options.latency_mode = LatencyMode::kVirtualCost;
  options.latency_threshold_micros = 50.0;
  options.max_runs = 24;  // deterministic shed trigger on top of θ
  options.shed_amount.fraction = 0.4;
  options.shed_cooldown_events = 8;
  return options;
}

struct Artifacts {
  std::vector<uint64_t> fingerprints;
  std::string metrics;
  std::string audit_jsonl;
  std::string snapshot;
  uint64_t runs_shed = 0;
  uint64_t events_dropped = 0;
};

/// Runs the stream through one engine; optionally snapshots after
/// `checkpoint_at` events (into *checkpoint) or restores from *restore
/// before processing. Verifies run conservation at every step.
ShedderPtr MakeStrategy(BikeSchema* schema, const std::string& strategy) {
  ShedderEnv env;
  env.schema = &schema->registry;
  auto shedder = ShedderRegistry::Make(SpecFor(strategy), env);
  EXPECT_TRUE(shedder.ok()) << shedder.status().ToString();
  return shedder.ok() ? shedder.MoveValueUnsafe() : nullptr;
}

/// Flushes `engine` and collects its artifacts.
Artifacts Collect(Engine& engine, const obs::ShedAuditLog& audit) {
  const Status st = engine.Flush();
  EXPECT_TRUE(st.ok()) << st.ToString();

  Artifacts artifacts;
  for (const Match& m : engine.matches()) {
    artifacts.fingerprints.push_back(m.fingerprint);
  }
  artifacts.metrics = engine.metrics().ToString();
  artifacts.audit_jsonl = audit.ToJsonl();
  auto snap = engine.SerializeSnapshot();
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  artifacts.snapshot = snap.MoveValueUnsafe();
  artifacts.runs_shed = engine.metrics().runs_shed;
  artifacts.events_dropped = engine.metrics().events_dropped;
  return artifacts;
}

Artifacts RunStream(BikeSchema* schema, const NfaPtr& nfa,
                    const std::string& strategy,
                    const std::vector<EventPtr>& events,
                    size_t checkpoint_at = 0,
                    std::string* checkpoint = nullptr,
                    const std::string* restore = nullptr) {
  Engine engine(nfa, ConformanceOptions(), MakeStrategy(schema, strategy));
  obs::ShedAuditLog audit(1 << 12);
  engine.AttachAuditLog(&audit);

  size_t start = 0;
  if (restore != nullptr) {
    const Status st = engine.RestoreFromSnapshot(*restore);
    EXPECT_TRUE(st.ok()) << st.ToString();
    start = static_cast<size_t>(engine.stream_offset());
    EXPECT_LE(start, events.size());
  }
  for (size_t i = start; i < events.size(); ++i) {
    // OfferEvent (not ProcessEvent) so the snapshot's stream offset
    // advances and the resumed engine skips the consumed prefix.
    const Status st = engine.OfferEvent(events[i]);
    EXPECT_TRUE(st.ok()) << st.ToString();
    const Status inv = engine.VerifyInvariants();
    EXPECT_TRUE(inv.ok()) << "after event " << i << ": " << inv.ToString();
    if (checkpoint != nullptr && i + 1 == checkpoint_at) {
      auto snap = engine.SerializeSnapshot();
      EXPECT_TRUE(snap.ok()) << snap.status().ToString();
      *checkpoint = snap.MoveValueUnsafe();
    }
  }
  return Collect(engine, audit);
}

/// Runs the stream through `shards` copies of the strategy's engine, which
/// a MultiEngine fans out on a `threads`-wide pool, and returns query 0's
/// artifacts. Each copy has its own audit log: a shared one would
/// interleave concurrent appends.
Artifacts RunFannedOut(BikeSchema* schema, const NfaPtr& nfa,
                       const std::string& strategy,
                       const std::vector<EventPtr>& events, size_t threads,
                       size_t shards) {
  MultiEngine multi;
  std::vector<std::unique_ptr<obs::ShedAuditLog>> audits;
  for (size_t i = 0; i < shards; ++i) {
    multi.AddQuery(nfa, ConformanceOptions(), MakeStrategy(schema, strategy));
    audits.push_back(std::make_unique<obs::ShedAuditLog>(1 << 12));
    multi.engine(i).AttachAuditLog(audits.back().get());
  }
  multi.EnableParallel(threads);
  for (const EventPtr& event : events) {
    const Status st = multi.OfferEvent(event);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return Collect(multi.engine(0), *audits[0]);
}

class StrategyConformance : public ::testing::TestWithParam<std::string> {
 protected:
  BikeSchema schema_;
};

INSTANTIATE_TEST_SUITE_P(
    Registry, StrategyConformance, ::testing::ValuesIn(RegisteredNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST_P(StrategyConformance, DeterministicAtFixedSeed) {
  NfaPtr nfa = schema_.Compile(kQuery);
  ASSERT_NE(nfa, nullptr);
  const std::vector<EventPtr> events = MakeStream(&schema_, 240);
  const Artifacts a = RunStream(&schema_, nfa, GetParam(), events);
  const Artifacts b = RunStream(&schema_, nfa, GetParam(), events);
  EXPECT_EQ(a.fingerprints, b.fingerprints);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.audit_jsonl, b.audit_jsonl);
  EXPECT_EQ(a.snapshot, b.snapshot);
}

TEST_P(StrategyConformance, ArtifactsIdenticalAcrossThreadsAndShards) {
  // Threads is the MultiEngine fan-out width; shards is the number of
  // engines (copies of this strategy's engine) each event is split over.
  // The engine's artifacts must match a standalone run in every
  // configuration.
  NfaPtr nfa = schema_.Compile(kQuery);
  ASSERT_NE(nfa, nullptr);
  const std::vector<EventPtr> events = MakeStream(&schema_, 240);
  const Artifacts alone = RunStream(&schema_, nfa, GetParam(), events);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shards);
      const Artifacts fanned =
          RunFannedOut(&schema_, nfa, GetParam(), events, threads, shards);
      EXPECT_EQ(alone.fingerprints, fanned.fingerprints);
      EXPECT_EQ(alone.metrics, fanned.metrics);
      EXPECT_EQ(alone.audit_jsonl, fanned.audit_jsonl);
      EXPECT_EQ(alone.snapshot, fanned.snapshot);
    }
  }
}

TEST_P(StrategyConformance, CheckpointRestoreMidShedEpisodeByteIdentical) {
  NfaPtr nfa = schema_.Compile(kQuery);
  ASSERT_NE(nfa, nullptr);
  const std::vector<EventPtr> events = MakeStream(&schema_, 240);
  std::string checkpoint;
  const Artifacts full = RunStream(&schema_, nfa, GetParam(), events,
                                   /*checkpoint_at=*/120, &checkpoint);
  ASSERT_FALSE(checkpoint.empty());
  const Artifacts resumed =
      RunStream(&schema_, nfa, GetParam(), events, 0, nullptr, &checkpoint);
  EXPECT_EQ(full.fingerprints, resumed.fingerprints);
  EXPECT_EQ(full.metrics, resumed.metrics);
  EXPECT_EQ(full.audit_jsonl, resumed.audit_jsonl);
  EXPECT_EQ(full.snapshot, resumed.snapshot);
}

TEST_P(StrategyConformance, RunConservationUnderSustainedShedding) {
  // VerifyInvariants is asserted after every event inside RunStream; this
  // test additionally checks the pressure was real for episode strategies.
  NfaPtr nfa = schema_.Compile(kQuery);
  ASSERT_NE(nfa, nullptr);
  const std::vector<EventPtr> events = MakeStream(&schema_, 240);
  const Artifacts a = RunStream(&schema_, nfa, GetParam(), events);
  const std::string& name = GetParam();
  if (name == "rbls" || name == "ttl" || name == "sbls" ||
      name == "pspice" || name == "hybrid") {
    EXPECT_GT(a.runs_shed, 0u) << "state-side strategy never shed a run";
  }
  if (name == "none") {
    EXPECT_EQ(a.runs_shed, 0u);
    EXPECT_EQ(a.events_dropped, 0u);
  }
}

// ---------------------------------------------------------------------------
// Registry unit tests
// ---------------------------------------------------------------------------

TEST(ShedderRegistryTest, ListStrategiesContainsTheWholeFamily) {
  const std::vector<std::string> names = RegisteredNames();
  for (const char* expected : {"none", "ibls", "rbls", "ttl", "sbls",
                               "espice", "hspice", "pspice", "hybrid"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing strategy " << expected;
  }
  // Name-sorted (the CLI --help and !hello listings rely on it).
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ShedderRegistryTest, ParseSpecForms) {
  auto bare = ShedderRegistry::ParseSpec("sbls");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.ValueOrDie().first, "sbls");
  EXPECT_TRUE(bare.ValueOrDie().second.empty());

  auto params = ShedderRegistry::ParseSpec(" SBLS( slices=8 , seed=7 ) ");
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params.ValueOrDie().first, "sbls");
  EXPECT_EQ(params.ValueOrDie().second.at("slices"), "8");
  EXPECT_EQ(params.ValueOrDie().second.at("seed"), "7");

  EXPECT_FALSE(ShedderRegistry::ParseSpec("sbls(slices=8").ok());
  EXPECT_FALSE(ShedderRegistry::ParseSpec("").ok());
  EXPECT_FALSE(ShedderRegistry::ParseSpec("sbls(slices)").ok());
  EXPECT_FALSE(ShedderRegistry::ParseSpec("sbls(seed=1,seed=2)").ok());
}

TEST(ShedderRegistryTest, DuplicateKnobIsHardErrorEvenWithSpacing) {
  // Keys are stripped before the duplicate check, so "slices =8" and
  // "slices= 16" name the same knob; historically the spaced form slipped
  // past and last-won silently in the factory's param map.
  const auto spaced = ShedderRegistry::ParseSpec("sbls(slices =8, slices= 16)");
  ASSERT_FALSE(spaced.ok());
  EXPECT_TRUE(spaced.status().IsInvalidArgument()) << spaced.status().ToString();
  EXPECT_NE(spaced.status().ToString().find("duplicate"), std::string::npos);

  const auto plain = ShedderRegistry::ParseSpec("rbls(seed=1,seed=2)");
  ASSERT_FALSE(plain.ok());
  EXPECT_TRUE(plain.status().IsInvalidArgument());

  // Make surfaces the same hard error (not a fallback to defaults).
  EXPECT_TRUE(
      ShedderRegistry::Make("rbls(seed=1, seed =2)").status().IsInvalidArgument());
}

TEST(ShedderRegistryTest, EmptySpecIsInvalidArgumentNotParseError) {
  for (const char* spec : {"", "   ", "\t", "(slices=8)"}) {
    const auto parsed = ShedderRegistry::ParseSpec(spec);
    ASSERT_FALSE(parsed.ok()) << "spec '" << spec << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << "spec '" << spec << "': " << parsed.status().ToString();
  }
  EXPECT_TRUE(ShedderRegistry::Make("  ").status().IsInvalidArgument());
}

TEST(ShedderRegistryTest, SpacedKnobsParse) {
  const auto parsed = ShedderRegistry::ParseSpec("sbls( slices = 8 )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().second.at("slices"), "8");
}

TEST(ShedderRegistryTest, UnknownStrategyAndUnknownKeyAreErrors) {
  EXPECT_FALSE(ShedderRegistry::Make("no-such-strategy").ok());
  // Strict: an inline spec key the strategy does not know is a typo.
  EXPECT_FALSE(ShedderRegistry::Make("rbls(sede=7)").ok());
  EXPECT_TRUE(ShedderRegistry::Make("rbls(seed=7)").ok());
}

TEST(ShedderRegistryTest, NoneProducesNullShedder) {
  auto none = ShedderRegistry::Make("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.ValueOrDie(), nullptr);
}

TEST(ShedderRegistryTest, MakeFromParamsFiltersForeignKeys) {
  // Flat service specs mix engine options into the same map; the registry
  // must ignore what the strategy does not declare.
  ShedderParams params{{"seed", "7"}, {"theta", "80"}, {"threads", "4"}};
  auto shedder = ShedderRegistry::MakeFromParams("rbls", params);
  ASSERT_TRUE(shedder.ok()) << shedder.status().ToString();
  EXPECT_NE(shedder.ValueOrDie(), nullptr);
}

TEST(ShedderRegistryTest, HybridComposesAndValidatesChildren) {
  BikeSchema schema;
  ShedderEnv env;
  env.schema = &schema.registry;
  auto hybrid =
      ShedderRegistry::Make("hybrid(input=ibls,state=sbls,hash=req:loc)", env);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  EXPECT_EQ(hybrid.ValueOrDie()->name(), "HYBRID[IBLS+SBLS]");

  EXPECT_FALSE(ShedderRegistry::Make("hybrid(input=hybrid)", env).ok());
  EXPECT_FALSE(ShedderRegistry::Make("hybrid(state=none)", env).ok());
  EXPECT_FALSE(ShedderRegistry::Make("hybrid(input=none)", env).ok());
}

TEST(ShedderRegistryTest, EveryStrategyHasSummaryAndBuildableDefault) {
  BikeSchema schema;
  ShedderEnv env;
  env.schema = &schema.registry;
  for (const ShedderStrategyInfo& info : ShedderRegistry::ListStrategies()) {
    EXPECT_FALSE(info.summary.empty()) << info.name;
    auto shedder = ShedderRegistry::Make(info.name, env);
    EXPECT_TRUE(shedder.ok())
        << info.name << ": " << shedder.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Widened ShedDecision: one probe decision can drop the event AND shed runs
// ---------------------------------------------------------------------------

/// Drops every third probed event and sheds the oldest live run whenever
/// more than two are alive — exercises both halves of ShedDecision from the
/// input probe path (no overload needed).
class DropAndShedShedder final : public Shedder {
 public:
  std::string name() const override { return "TEST-DROP-AND-SHED"; }

  ShedDecision Decide(const ShedContext& ctx) override {
    ShedDecision decision;
    if (ctx.event == nullptr) return decision;
    size_t live = 0;
    for (size_t i = 0; i < ctx.runs.size(); ++i) {
      if (ctx.runs[i] == nullptr) continue;
      if (live == 0 && ctx.runs.size() > 2) {
        ShedVictim victim;
        victim.index = i;
        decision.victims.push_back(victim);
      }
      ++live;
    }
    if (live <= 2) decision.victims.clear();
    if (++probes_ % 3 == 0) decision.drop_event = true;
    return decision;
  }

 private:
  uint64_t probes_ = 0;
};

TEST(ShedDecisionTest, ProbeCanDropEventAndShedRunsInOneDecision) {
  BikeSchema schema;
  NfaPtr nfa = schema.Compile(kQuery);
  ASSERT_NE(nfa, nullptr);
  const std::vector<EventPtr> events = MakeStream(&schema, 120);
  Engine engine(nfa, EngineOptions{},
                std::make_unique<DropAndShedShedder>());
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(engine.ProcessEvent(event));
    CEP_ASSERT_OK(engine.VerifyInvariants());
  }
  CEP_ASSERT_OK(engine.Flush());
  EXPECT_GT(engine.metrics().events_dropped, 0u);
  EXPECT_GT(engine.metrics().runs_shed, 0u);
  EXPECT_GT(engine.metrics().shed_triggers, 0u);
}

}  // namespace
}  // namespace cep
