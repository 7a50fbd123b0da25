#include <gtest/gtest.h>

#include <set>

#include "engine/engine.h"
#include "shedding/input_shedder.h"
#include "shedding/pm_hash.h"
#include "shedding/random_shedder.h"
#include "shedding/state_shedder.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

std::vector<RunPtr> MakeRuns(int n, int num_vars = 2) {
  std::vector<RunPtr> runs;
  for (int i = 0; i < n; ++i) {
    runs.push_back(MakeRun(static_cast<uint64_t>(i + 1), num_vars,
                           /*state=*/1, /*start_ts=*/i * kMinute));
  }
  return runs;
}

std::vector<size_t> VictimIndices(Shedder& shedder,
                                  const std::vector<RunPtr>& runs,
                                  Timestamp now, size_t target) {
  const ShedDecision decision =
      shedder.Decide(ShedContext{runs, now, target, /*want_scores=*/false});
  std::vector<size_t> indices;
  indices.reserve(decision.victims.size());
  for (const ShedVictim& victim : decision.victims) {
    indices.push_back(victim.index);
  }
  return indices;
}

TEST(RandomShedderTest, SelectsDistinctAliveIndices) {
  RandomShedder shedder(17);
  auto runs = MakeRuns(50);
  runs[10] = nullptr;
  runs[20] = nullptr;
  std::vector<size_t> victims = VictimIndices(shedder, runs, 0, 10);
  ASSERT_EQ(victims.size(), 10u);
  std::set<size_t> unique(victims.begin(), victims.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_EQ(unique.count(10), 0u);
  EXPECT_EQ(unique.count(20), 0u);
}

TEST(RandomShedderTest, TargetLargerThanPopulation) {
  RandomShedder shedder(17);
  auto runs = MakeRuns(5);
  EXPECT_EQ(VictimIndices(shedder, runs, 0, 100).size(), 5u);
}

TEST(RandomShedderTest, DeterministicPerSeed) {
  auto runs = MakeRuns(30);
  RandomShedder s5a(5), s5b(5), s6(6);
  const std::vector<size_t> a = VictimIndices(s5a, runs, 0, 10);
  const std::vector<size_t> b = VictimIndices(s5b, runs, 0, 10);
  const std::vector<size_t> c = VictimIndices(s6, runs, 0, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TtlShedderTest, ShedsOldestFirst) {
  TtlShedder shedder;
  auto runs = MakeRuns(10);  // start_ts = 0, 1min, 2min, ...
  std::vector<size_t> victims = VictimIndices(shedder, runs, 10 * kMinute, 3);
  std::set<size_t> got(victims.begin(), victims.end());
  EXPECT_EQ(got, (std::set<size_t>{0, 1, 2}));
}

TEST(InputShedderTest, DropsOnlyWhenOverloaded) {
  BikeSchema fixture;
  InputShedderOptions options;
  options.drop_probability = 1.0;
  options.only_when_overloaded = true;
  InputShedder shedder(options);
  const EventPtr e = fixture.Req(1, 1, 1);
  EXPECT_FALSE(shedder.ShouldDropEvent(*e, /*overloaded=*/false));
  EXPECT_TRUE(shedder.ShouldDropEvent(*e, /*overloaded=*/true));
}

TEST(InputShedderTest, DropRateMatchesProbability) {
  BikeSchema fixture;
  InputShedderOptions options;
  options.drop_probability = 0.3;
  options.only_when_overloaded = false;
  InputShedder shedder(options);
  const EventPtr e = fixture.Req(1, 1, 1);
  int drops = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    drops += shedder.ShouldDropEvent(*e, false) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.03);
}

TEST(InputShedderTest, TypeUtilityProtectsImportantTypes) {
  BikeSchema fixture;
  NfaPtr nfa = fixture.Compile(
      "PATTERN SEQ(req a, unlock c) WITHIN 10 min");
  InputShedderOptions options;
  options.drop_probability = 1.0;
  options.only_when_overloaded = false;
  options.type_utility = {{"req", 1.0}, {"unlock", 0.0}};
  InputShedder shedder(options);
  shedder.Attach(*nfa);
  const EventPtr req = fixture.Req(1, 1, 1);
  const EventPtr unlock = fixture.Unlock(2, 1, 1, 1);
  int req_drops = 0, unlock_drops = 0;
  for (int i = 0; i < 100; ++i) {
    req_drops += shedder.ShouldDropEvent(*req, false) ? 1 : 0;
    unlock_drops += shedder.ShouldDropEvent(*unlock, false) ? 1 : 0;
  }
  EXPECT_EQ(req_drops, 0);
  EXPECT_EQ(unlock_drops, 100);
}

TEST(InputShedderTest, DecideIsNoOp) {
  InputShedder shedder(InputShedderOptions{});
  auto runs = MakeRuns(10);
  EXPECT_TRUE(VictimIndices(shedder, runs, 0, 5).empty());
}

TEST(PmHasherTest, DefaultHashesAllAttributes) {
  BikeSchema fixture;
  PmHasher hasher{PmHashOptions{}};
  hasher.AttachDynamic();
  const EventPtr a = fixture.Req(1, 5, 10);
  const EventPtr b = fixture.Req(2, 5, 10);   // same attrs, different ts
  const EventPtr c = fixture.Req(3, 6, 10);   // different loc
  EXPECT_EQ(hasher.EventHash(*a), hasher.EventHash(*b));
  EXPECT_NE(hasher.EventHash(*a), hasher.EventHash(*c));
}

TEST(PmHasherTest, SelectorsRestrictHashedAttributes) {
  BikeSchema fixture;
  PmHashOptions options;
  options.attributes = {{"req", "loc"}};
  PmHasher hasher(options);
  hasher.AttachDynamic();
  const EventPtr a = fixture.Req(1, 5, 10);
  const EventPtr b = fixture.Req(2, 5, 999);  // different uid is ignored
  const EventPtr c = fixture.Req(3, 6, 10);
  EXPECT_EQ(hasher.EventHash(*a), hasher.EventHash(*b));
  EXPECT_NE(hasher.EventHash(*a), hasher.EventHash(*c));
}

TEST(PmHasherTest, NumericBucketingGroupsNearbyValues) {
  BikeSchema fixture;
  PmHashOptions options;
  options.attributes = {{"req", "loc"}};
  options.numeric_bucket_width = 10.0;
  PmHasher hasher(options);
  hasher.AttachDynamic();
  EXPECT_EQ(hasher.EventHash(*fixture.Req(1, 12, 1)),
            hasher.EventHash(*fixture.Req(2, 17, 2)));
  EXPECT_NE(hasher.EventHash(*fixture.Req(1, 12, 1)),
            hasher.EventHash(*fixture.Req(2, 27, 2)));
}

TEST(PmHasherTest, ExtendIsOrderInsensitive) {
  BikeSchema fixture;
  PmHasher hasher{PmHashOptions{}};
  hasher.AttachDynamic();
  const EventPtr a = fixture.Avail(1, 3, 1);
  const EventPtr b = fixture.Avail(2, 4, 2);
  EXPECT_EQ(hasher.Extend(hasher.Extend(0, *a), *b),
            hasher.Extend(hasher.Extend(0, *b), *a));
}

TEST(PmHasherTest, RegistryAttachMatchesDynamic) {
  BikeSchema fixture;
  PmHashOptions options;
  options.attributes = {{"req", "loc"}, {"avail", "bid"}};
  NfaPtr nfa = fixture.Compile(
      "PATTERN SEQ(req a, avail+ b[], unlock c) WITHIN 10 min");
  PmHasher resolved(options);
  CEP_ASSERT_OK(resolved.Attach(*nfa, fixture.registry));
  PmHasher dynamic(options);
  dynamic.AttachDynamic();
  const EventPtr e = fixture.Req(1, 5, 10);
  EXPECT_EQ(resolved.EventHash(*e), dynamic.EventHash(*e));
}

class StateShedderTest : public ::testing::Test {
 protected:
  StateShedderOptions DefaultOptions() {
    StateShedderOptions options;
    options.pm_hash.attributes = {{"req", "loc"}};
    options.time_slices = 4;
    // A completed match must outweigh the cost of the one derivation that
    // produced it, otherwise productive and dead groups tie at score 0.
    options.scoring.weight_contribution = 2.0;
    options.scoring.weight_cost = 1.0;
    return options;
  }

  BikeSchema fixture_;
};

TEST_F(StateShedderTest, LearnsToProtectProductiveGroups) {
  // Query: req -> unlock by same user. Requests at loc 1 always complete;
  // requests at loc 2 never do. After a training phase, the shedder must
  // score loc-1 runs above loc-2 runs.
  NfaPtr nfa = fixture_.Compile(
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 60 min");
  auto shedder =
      std::make_unique<StateShedder>(DefaultOptions(), &fixture_.registry);
  StateShedder* raw = shedder.get();
  Engine engine(nfa, EngineOptions{}, std::move(shedder));
  Timestamp ts = kMinute;
  // Training: 50 completing (loc 1) and 50 dead-end (loc 2) requests.
  for (int i = 0; i < 50; ++i) {
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 1, 100 + i)));
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Unlock(ts, 9, 100 + i, 1)));
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 2, 500 + i)));
  }
  // Probe runs: one fresh run per group.
  ts += kSecond;
  CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 1, 9001)));
  ts += kSecond;
  CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 2, 9002)));
  const ::cep::Run* good = nullptr;
  const ::cep::Run* bad = nullptr;
  for (const auto& run : engine.runs()) {
    if (run->binding(0)[0]->attribute("uid") == Value(9001)) good = run.get();
    if (run->binding(0)[0]->attribute("uid") == Value(9002)) bad = run.get();
  }
  ASSERT_NE(good, nullptr);
  ASSERT_NE(bad, nullptr);
  EXPECT_GT(raw->Score(*good, ts), raw->Score(*bad, ts));
}

TEST_F(StateShedderTest, SelectsLowestScoredRunsAsVictims) {
  NfaPtr nfa = fixture_.Compile(
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 60 min");
  StateShedderOptions options = DefaultOptions();
  options.contribution_optimism = 0.0;  // unseen groups score 0
  auto shedder = std::make_unique<StateShedder>(options, &fixture_.registry);
  Engine engine(nfa, EngineOptions{}, std::move(shedder));
  Timestamp ts = kMinute;
  // Make loc-1 runs productive.
  for (int i = 0; i < 20; ++i) {
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 1, 100 + i)));
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Unlock(ts, 9, 100 + i, 1)));
  }
  // Now 10 live loc-1 runs and 10 live loc-2 runs.
  for (int i = 0; i < 10; ++i) {
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 1, 7000 + i)));
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, 2, 8000 + i)));
  }
  // Under skip-till-any-match the 20 training runs also survive (completing
  // a match never retires the original run), so 30 loc-1 runs + 10 loc-2
  // runs are live.
  ASSERT_EQ(engine.num_runs(), 40u);
  engine.ForceShed(10);
  // The 10 loc-2 runs (never productive) must be the victims.
  EXPECT_EQ(engine.num_runs(), 30u);
  for (const auto& run : engine.runs()) {
    EXPECT_EQ(run->binding(0)[0]->attribute("loc"), Value(1));
  }
}

TEST_F(StateShedderTest, TrailGrowsWithTransitions) {
  NfaPtr nfa = fixture_.Compile(
      "PATTERN SEQ(req a, avail+ b[], unlock c) WITHIN 60 min");
  auto shedder =
      std::make_unique<StateShedder>(DefaultOptions(), &fixture_.registry);
  Engine engine(nfa, EngineOptions{}, std::move(shedder));
  CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(kMinute, 1, 1)));
  ASSERT_EQ(engine.num_runs(), 1u);
  EXPECT_EQ(engine.runs()[0]->trail().size(), 1u);
  CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Avail(2 * kMinute, 1, 1)));
  // Child run <r, a1> carries the parent's trail plus its own cell.
  for (const auto& run : engine.runs()) {
    if (run->size() == 2) {
      EXPECT_EQ(run->trail().size(), 2u);
    }
  }
}

TEST_F(StateShedderTest, SketchBackendWorksEndToEnd) {
  NfaPtr nfa = fixture_.Compile(
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 60 min");
  StateShedderOptions options = DefaultOptions();
  options.backend = StateShedderOptions::Backend::kSketch;
  options.sketch_width = 1024;
  options.sketch_depth = 4;
  auto shedder = std::make_unique<StateShedder>(options, &fixture_.registry);
  Engine engine(nfa, EngineOptions{}, std::move(shedder));
  Timestamp ts = kMinute;
  for (int i = 0; i < 50; ++i) {
    ts += kSecond;
    CEP_ASSERT_OK(engine.ProcessEvent(fixture_.Req(ts, i % 5, i)));
  }
  engine.ForceShed(25);
  EXPECT_EQ(engine.num_runs(), 25u);
}

TEST_F(StateShedderTest, NameIsSBLS) {
  StateShedder shedder(DefaultOptions(), nullptr);
  EXPECT_EQ(shedder.name(), "SBLS");
  EXPECT_EQ(RandomShedder(1).name(), "RBLS");
  EXPECT_EQ(TtlShedder().name(), "TTL");
  EXPECT_EQ(InputShedder(InputShedderOptions{}).name(), "IBLS");
}

}  // namespace
}  // namespace cep
