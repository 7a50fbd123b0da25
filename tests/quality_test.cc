// Tests for the shedding-quality observability stack (shadow oracle,
// calibration monitor, θ SLO burn rates, interpolated histogram quantiles):
//  - unit math: Wilson bounds, calibration buckets/Brier/drift, burn rates,
//    histogram quantile boundary-exactness;
//  - the shadow oracle's recall estimate against ground truth under forced
//    shedding, and its exact non-interference with primary results;
//  - determinism: byte-identical quality exports across threads x shards and
//    across a mid-span checkpoint -> restore.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/io.h"
#include "common/time.h"
#include "engine/multi.h"
#include "engine/shadow.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "shedding/random_shedder.h"
#include "shedding/state_shedder.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;
using testing_util::RunAll;

// --- Wilson interval --------------------------------------------------------

TEST(WilsonScoreTest, EmptyTrialsGiveFullInterval) {
  const obs::WilsonInterval interval = obs::WilsonScore(0, 0);
  EXPECT_DOUBLE_EQ(interval.center, 0.0);
  EXPECT_DOUBLE_EQ(interval.lower, 0.0);
  EXPECT_DOUBLE_EQ(interval.upper, 1.0);
}

TEST(WilsonScoreTest, CenterMatchesProportionAndBoundsBracketIt) {
  const obs::WilsonInterval interval = obs::WilsonScore(80, 100);
  EXPECT_DOUBLE_EQ(interval.center, 0.8);
  EXPECT_LT(interval.lower, 0.8);
  EXPECT_GT(interval.upper, 0.8);
  EXPECT_GE(interval.lower, 0.0);
  EXPECT_LE(interval.upper, 1.0);
  // ~95% interval for n=100, p=0.8 is roughly +-0.08.
  EXPECT_NEAR(interval.lower, 0.71, 0.02);
  EXPECT_NEAR(interval.upper, 0.87, 0.02);
}

TEST(WilsonScoreTest, IntervalTightensWithMoreTrials) {
  const obs::WilsonInterval small = obs::WilsonScore(8, 10);
  const obs::WilsonInterval large = obs::WilsonScore(800, 1000);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(WilsonScoreTest, PerfectRecallKeepsUpperAtOne) {
  const obs::WilsonInterval interval = obs::WilsonScore(50, 50);
  EXPECT_DOUBLE_EQ(interval.center, 1.0);
  EXPECT_DOUBLE_EQ(interval.upper, 1.0);
  EXPECT_LT(interval.lower, 1.0);
}

// --- calibration monitor ----------------------------------------------------

TEST(CalibrationMonitorTest, PerfectlyCalibratedPredictionsHaveZeroDrift) {
  obs::CalibrationMonitor monitor(10);
  // Prediction 1.0 -> always completes; prediction 0.0 -> never completes.
  for (int i = 0; i < 50; ++i) {
    monitor.ObserveOutcome(1.0, true);
    monitor.ObserveOutcome(0.0, false);
  }
  EXPECT_EQ(monitor.outcomes(), 100u);
  EXPECT_DOUBLE_EQ(monitor.BrierScore(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.Drift(), 0.0);
}

TEST(CalibrationMonitorTest, MaximallyMiscalibratedDriftApproachesOne) {
  obs::CalibrationMonitor monitor(10);
  for (int i = 0; i < 50; ++i) {
    monitor.ObserveOutcome(1.0, false);  // confident and always wrong
  }
  EXPECT_DOUBLE_EQ(monitor.BrierScore(), 1.0);
  EXPECT_DOUBLE_EQ(monitor.Drift(), 1.0);
}

TEST(CalibrationMonitorTest, BucketsAccumulatePredictedAndObservedRates) {
  obs::CalibrationMonitor monitor(10);
  // Bucket [0.7, 0.8): predicted 0.75, observed completion rate 0.5.
  monitor.ObserveOutcome(0.75, true);
  monitor.ObserveOutcome(0.75, false);
  size_t hot = monitor.num_buckets();
  for (size_t b = 0; b < monitor.num_buckets(); ++b) {
    if (monitor.bucket_count(b) > 0) hot = b;
  }
  ASSERT_LT(hot, monitor.num_buckets());
  EXPECT_EQ(monitor.bucket_count(hot), 2u);
  EXPECT_DOUBLE_EQ(monitor.bucket_predicted(hot), 0.75);
  EXPECT_DOUBLE_EQ(monitor.bucket_observed(hot), 0.5);
  // Brier: ((0.75-1)^2 + (0.75-0)^2) / 2 = (0.0625 + 0.5625) / 2.
  EXPECT_DOUBLE_EQ(monitor.BrierScore(), 0.3125);
  EXPECT_DOUBLE_EQ(monitor.Drift(), 0.25);
}

TEST(CalibrationMonitorTest, ShedPredictionsTrackedSeparately) {
  obs::CalibrationMonitor monitor(10);
  monitor.ObserveShed(0.2);
  monitor.ObserveShed(0.4);
  EXPECT_EQ(monitor.shed_observations(), 2u);
  EXPECT_DOUBLE_EQ(monitor.MeanShedPrediction(), 0.3);
  // Shed victims never contribute to Brier/drift (outcome unobservable).
  EXPECT_EQ(monitor.outcomes(), 0u);
  EXPECT_DOUBLE_EQ(monitor.BrierScore(), 0.0);
}

TEST(CalibrationMonitorTest, SerializeRestoreRoundTripsExports) {
  obs::CalibrationMonitor monitor(10);
  for (int i = 0; i < 25; ++i) {
    monitor.ObserveOutcome(0.1 + 0.03 * i, i % 3 == 0);
    monitor.ObserveShed(0.02 * i);
  }
  ckpt::Sink sink;
  CEP_ASSERT_OK(monitor.SerializeTo(sink));
  const std::string bytes = sink.TakeBytes();
  obs::CalibrationMonitor restored(10);
  ckpt::Source source(bytes);
  CEP_ASSERT_OK(restored.RestoreFrom(source));
  EXPECT_EQ(monitor.ToJson(), restored.ToJson());
  // Canonical bytes: serialize(restore(x)) == x.
  ckpt::Sink again;
  CEP_ASSERT_OK(restored.SerializeTo(again));
  EXPECT_EQ(bytes, again.TakeBytes());
}

// --- θ SLO monitor ----------------------------------------------------------

TEST(ThetaSloMonitorTest, BurnRateIsViolatingFractionOverBudget) {
  obs::ThetaSloMonitor monitor({10, 100}, 0.1);
  // 5 violations in the first 10 events: windowed fraction 0.5, budget 0.1
  // -> burn rate 5.0 over the small window.
  for (int i = 0; i < 10; ++i) monitor.Observe(i % 2 == 0, 1.0);
  EXPECT_EQ(monitor.events(), 10u);
  EXPECT_EQ(monitor.violating_events(), 5u);
  EXPECT_DOUBLE_EQ(monitor.BurnRate(0), 5.0);
  // The large window clamps to the 10 events seen so far: same fraction.
  EXPECT_DOUBLE_EQ(monitor.BurnRate(1), 5.0);
}

TEST(ThetaSloMonitorTest, WindowForgetsOldViolations) {
  obs::ThetaSloMonitor monitor({4, 16}, 0.5);
  for (int i = 0; i < 4; ++i) monitor.Observe(true, 2.0);
  for (int i = 0; i < 4; ++i) monitor.Observe(false, 1.0);
  // Small window now holds only the 4 clean events.
  EXPECT_DOUBLE_EQ(monitor.BurnRate(0), 0.0);
  // The 16-window still remembers all 8: fraction 0.5 / budget 0.5 = 1.
  EXPECT_DOUBLE_EQ(monitor.BurnRate(1), 1.0);
  EXPECT_DOUBLE_EQ(monitor.time_in_violation_us(), 8.0);
}

TEST(ThetaSloMonitorTest, StreaksTrackConsecutiveViolations) {
  obs::ThetaSloMonitor monitor({8}, 0.01);
  monitor.Observe(true, 1.0);
  monitor.Observe(true, 1.0);
  monitor.Observe(false, 1.0);
  monitor.Observe(true, 1.0);
  EXPECT_EQ(monitor.current_streak(), 1u);
  EXPECT_EQ(monitor.longest_streak(), 2u);
}

TEST(ThetaSloMonitorTest, SerializeRestoreRoundTripsExports) {
  obs::ThetaSloMonitor monitor({4, 32}, 0.05);
  for (int i = 0; i < 40; ++i) monitor.Observe(i % 7 == 0, 0.5 * i);
  ckpt::Sink sink;
  CEP_ASSERT_OK(monitor.SerializeTo(sink));
  const std::string bytes = sink.TakeBytes();
  obs::ThetaSloMonitor restored({4, 32}, 0.05);
  ckpt::Source source(bytes);
  CEP_ASSERT_OK(restored.RestoreFrom(source));
  EXPECT_EQ(monitor.ToJson(), restored.ToJson());
  for (size_t w = 0; w < monitor.num_windows(); ++w) {
    EXPECT_DOUBLE_EQ(monitor.BurnRate(w), restored.BurnRate(w)) << w;
  }
}

// --- histogram quantiles (interpolated p50/p90/p99) -------------------------

TEST(HistogramQuantileTest, BoundaryRankIsExactBucketBound) {
  obs::Histogram histogram;  // bounds 1, 2, 4, 8, ...
  histogram.Record(0.5);
  histogram.Record(0.9);  // bucket (0, 1]: 2 samples
  histogram.Record(1.5);
  histogram.Record(1.9);  // bucket (1, 2]: 2 samples
  // Rank p50 = 2 falls exactly on bucket 0's upper edge: the interpolation
  // must return the bound itself, not a value inside either bucket.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.25), 0.5);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.75), 1.5);
}

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  obs::Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(HistogramQuantileTest, SingleBucketInterpolatesLinearly) {
  obs::Histogram histogram;
  for (int i = 0; i < 10; ++i) histogram.Record(3.0);  // bucket (2, 4]
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 4.0);
}

TEST(HistogramQuantileTest, OverflowBucketClampsToLastBound) {
  obs::HistogramSpec spec;
  spec.num_buckets = 3;  // bounds 1, 2, 4
  obs::Histogram histogram(spec);
  histogram.Record(100.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 4.0);
}

TEST(HistogramQuantileTest, PrometheusAndJsonExportQuantiles) {
  obs::Registry registry;
  obs::Histogram* histogram =
      registry.GetHistogram("test_hist", "help", obs::HistogramSpec{});
  for (int i = 0; i < 100; ++i) histogram->Record(static_cast<double>(i));
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("test_hist{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("test_hist{quantile=\"0.99\"}"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- shadow oracle: fixture -------------------------------------------------

class ShadowOracleTest : public ::testing::Test {
 protected:
  static constexpr int kPairsPerSpan = 8;

  // Query over the bike schema: req -> unlock of the same user within 10 s.
  NfaPtr CompileQuery() {
    return schema_.Compile(
        "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid "
        "WITHIN 10 s RETURN w(user = a.uid)");
  }

  /// One block of 8 overlapping req/unlock pairs per shadow span (the span
  /// width defaults to 2x the 10 s window = 20 s): reqs at offsets 0..7 s,
  /// their unlocks at offsets 9..16 s. Every match is span-contained, all
  /// pairs inside a block overlap (so a max_runs cap forces real shedding),
  /// and uids are globally unique so golden truth is one match per pair.
  std::vector<EventPtr> MakeStream(int spans) {
    std::vector<EventPtr> events;
    for (int s = 0; s < spans; ++s) {
      const Timestamp base = static_cast<Timestamp>(s) * 20 * kSecond;
      for (int i = 0; i < kPairsPerSpan; ++i) {
        events.push_back(schema_.Req(base + i * kSecond, /*loc=*/1,
                                     /*uid=*/s * kPairsPerSpan + i));
      }
      for (int i = 0; i < kPairsPerSpan; ++i) {
        events.push_back(schema_.Unlock(base + (9 + i) * kSecond, /*loc=*/9,
                                        /*uid=*/s * kPairsPerSpan + i,
                                        /*bid=*/i));
      }
    }
    return events;
  }

  EngineOptions QualityOptions(size_t sample_every = 1) {
    EngineOptions options;
    options.quality.shadow.sample_every = sample_every;
    options.quality.calibration.enabled = true;
    options.quality.slo.enabled = true;
    return options;
  }

  BikeSchema schema_;
};

TEST_F(ShadowOracleTest, UnshedEngineEstimatesFullRecall) {
  const NfaPtr nfa = CompileQuery();
  Engine engine(nfa, QualityOptions());
  for (const auto& event : MakeStream(5)) {
    CEP_ASSERT_OK(engine.ProcessEvent(event));
  }
  CEP_ASSERT_OK(engine.Flush());
  engine.FinishShadowSpan();
  const ShadowOracle* shadow = engine.shadow();
  ASSERT_NE(shadow, nullptr);
  EXPECT_GT(shadow->spans_completed(), 0u);
  EXPECT_GT(shadow->ghost_matches_total(), 0u);
  EXPECT_EQ(shadow->matched_total(), shadow->ghost_matches_total());
  EXPECT_EQ(shadow->unexpected_total(), 0u);
  EXPECT_DOUBLE_EQ(shadow->LifetimeRecall().center, 1.0);
}

TEST_F(ShadowOracleTest, ShedEngineEstimateTracksTrueRecall) {
  const NfaPtr nfa = CompileQuery();
  const std::vector<EventPtr> events = MakeStream(8);
  const std::vector<Match> golden = RunAll(nfa, EngineOptions{}, events);
  ASSERT_EQ(golden.size(), 64u);

  // A hard run cap forces state shedding: inside each block 8 runs overlap,
  // so most die before their unlock arrives.
  EngineOptions lossy = QualityOptions();
  lossy.max_runs = 2;
  lossy.shed_amount.fraction = 0.5;
  Engine engine(nfa, lossy, std::make_unique<RandomShedder>(7));
  for (const auto& event : events) CEP_ASSERT_OK(engine.ProcessEvent(event));
  CEP_ASSERT_OK(engine.Flush());
  engine.FinishShadowSpan();

  const std::vector<Match> lossy_matches = engine.TakeMatches();
  const double true_recall = static_cast<double>(lossy_matches.size()) /
                             static_cast<double>(golden.size());
  EXPECT_LT(true_recall, 1.0);

  const ShadowOracle* shadow = engine.shadow();
  ASSERT_NE(shadow, nullptr);
  // Every span sampled and every match span-contained: the estimate must
  // equal the true recall exactly, and the primary can never beat the ghost.
  EXPECT_EQ(shadow->unexpected_total(), 0u);
  EXPECT_EQ(shadow->ghost_matches_total(), golden.size());
  EXPECT_DOUBLE_EQ(shadow->LifetimeRecall().center, true_recall);
}

TEST_F(ShadowOracleTest, ShadowDoesNotPerturbPrimaryResults) {
  const NfaPtr nfa = CompileQuery();
  const std::vector<EventPtr> events = MakeStream(6);

  EngineOptions lossy;
  lossy.max_runs = 3;
  lossy.shed_amount.fraction = 0.5;
  Engine bare(nfa, lossy, std::make_unique<RandomShedder>(11));
  for (const auto& event : events) CEP_ASSERT_OK(bare.ProcessEvent(event));
  CEP_ASSERT_OK(bare.Flush());

  EngineOptions shadowed = lossy;
  shadowed.quality.shadow.sample_every = 1;
  shadowed.quality.calibration.enabled = true;
  shadowed.quality.slo.enabled = true;
  Engine quality(nfa, shadowed, std::make_unique<RandomShedder>(11));
  for (const auto& event : events) CEP_ASSERT_OK(quality.ProcessEvent(event));
  CEP_ASSERT_OK(quality.Flush());
  quality.FinishShadowSpan();

  // Exact non-interference: identical matches and identical primary metrics.
  const std::vector<Match> bare_matches = bare.TakeMatches();
  const std::vector<Match> quality_matches = quality.TakeMatches();
  ASSERT_EQ(bare_matches.size(), quality_matches.size());
  for (size_t i = 0; i < bare_matches.size(); ++i) {
    EXPECT_EQ(bare_matches[i].fingerprint, quality_matches[i].fingerprint);
  }
  EXPECT_EQ(bare.metrics().ToString(), quality.metrics().ToString());
}

TEST_F(ShadowOracleTest, SamplingSkipsUnselectedSpans) {
  const NfaPtr nfa = CompileQuery();
  const std::vector<EventPtr> events = MakeStream(12);
  // Seed 3 samples span ids {0, 2, 3, 8} of 0..11 under sample_every = 2
  // (the default seed happens to sample nothing on short streams).
  EngineOptions options = QualityOptions(/*sample_every=*/2);
  options.quality.shadow.seed = 3;
  Engine engine(nfa, options);
  for (const auto& event : events) CEP_ASSERT_OK(engine.ProcessEvent(event));
  CEP_ASSERT_OK(engine.Flush());
  engine.FinishShadowSpan();
  const ShadowOracle* shadow = engine.shadow();
  ASSERT_NE(shadow, nullptr);
  EXPECT_GT(shadow->spans_completed(), 0u);
  EXPECT_LT(shadow->spans_completed(), 12u);
  EXPECT_GT(shadow->events_mirrored(), 0u);
  EXPECT_LT(shadow->events_mirrored(), events.size());
  EXPECT_DOUBLE_EQ(shadow->LifetimeRecall().center, 1.0);
}

// --- determinism across fan-out --------------------------------------------

TEST_F(ShadowOracleTest, QualityExportsByteIdenticalAcrossThreadsAndShards) {
  // Threads is the MultiEngine fan-out width; shards is the number of
  // engines (copies of one shadowed engine) each event is split over. Query
  // 0's quality and metrics exports must not depend on either.
  const NfaPtr nfa = CompileQuery();
  const std::vector<EventPtr> events = MakeStream(8);
  EngineOptions options = QualityOptions();
  options.max_runs = 4;
  options.shed_amount.fraction = 0.5;

  std::string reference;
  for (const size_t threads : {1, 4}) {
    for (const size_t shards : {1, 4}) {
      MultiEngine multi;
      for (size_t i = 0; i < shards; ++i) {
        multi.AddQuery(nfa, options, std::make_unique<RandomShedder>(5));
      }
      multi.EnableParallel(threads);
      for (const auto& event : events) {
        CEP_ASSERT_OK(multi.ProcessEvent(event));
      }
      Engine& engine = multi.engine(0);
      CEP_ASSERT_OK(engine.Flush());
      engine.FinishShadowSpan();
      obs::Registry registry;
      engine.ExportMetrics(&registry);
      const std::string exported =
          engine.ExportQualityJson() + "\n" + registry.ToPrometheusText();
      if (reference.empty()) {
        reference = exported;
      } else {
        EXPECT_EQ(exported, reference)
            << "threads=" << threads << " shards=" << shards;
      }
    }
  }
}

// --- checkpoint / restore ---------------------------------------------------

TEST_F(ShadowOracleTest, MidSpanCheckpointRestoreIsByteIdentical) {
  const NfaPtr nfa = CompileQuery();
  const std::vector<EventPtr> events = MakeStream(6);
  EngineOptions options = QualityOptions();
  options.max_runs = 2;
  options.shed_amount.fraction = 0.5;

  // Reference: straight run.
  Engine reference(nfa, options, std::make_unique<RandomShedder>(3));
  for (const auto& event : events) {
    CEP_ASSERT_OK(reference.ProcessEvent(event));
  }
  CEP_ASSERT_OK(reference.Flush());
  reference.FinishShadowSpan();

  // Snapshot mid-stream, inside the second span's block (event 24 is that
  // block's 9th event), so an open span with a live ghost engine and
  // buffered fingerprints crosses the checkpoint.
  const size_t cut = 24;
  Engine first(nfa, options, std::make_unique<RandomShedder>(3));
  for (size_t i = 0; i < cut; ++i) {
    CEP_ASSERT_OK(first.ProcessEvent(events[i]));
  }
  CEP_ASSERT_OK_AND_ASSIGN(const std::string snapshot,
                           first.SerializeSnapshot());

  Engine second(nfa, options, std::make_unique<RandomShedder>(3));
  CEP_ASSERT_OK(second.RestoreFromSnapshot(snapshot));
  for (size_t i = cut; i < events.size(); ++i) {
    CEP_ASSERT_OK(second.ProcessEvent(events[i]));
  }
  CEP_ASSERT_OK(second.Flush());
  second.FinishShadowSpan();

  EXPECT_EQ(second.ExportQualityJson(), reference.ExportQualityJson());
  // The snapshot itself must be canonical: serialize(restore(x)) == x.
  Engine third(nfa, options, std::make_unique<RandomShedder>(3));
  CEP_ASSERT_OK(third.RestoreFromSnapshot(snapshot));
  CEP_ASSERT_OK_AND_ASSIGN(const std::string again,
                           third.SerializeSnapshot());
  EXPECT_EQ(snapshot, again);
}

TEST_F(ShadowOracleTest, RestoreRejectsMismatchedShadowConfig) {
  const NfaPtr nfa = CompileQuery();
  Engine writer(nfa, QualityOptions());
  for (const auto& event : MakeStream(2)) {
    CEP_ASSERT_OK(writer.ProcessEvent(event));
  }
  CEP_ASSERT_OK_AND_ASSIGN(const std::string snapshot,
                           writer.SerializeSnapshot());
  Engine reader(nfa, QualityOptions(/*sample_every=*/3));
  EXPECT_FALSE(reader.RestoreFromSnapshot(snapshot).ok());
}

// --- engine-level calibration + SLO wiring ----------------------------------

TEST_F(ShadowOracleTest, CalibrationObservesSblsRunOutcomes) {
  const NfaPtr nfa = CompileQuery();
  EngineOptions options = QualityOptions();
  options.max_runs = 2;
  options.shed_amount.fraction = 0.5;
  StateShedderOptions shedder_options;
  shedder_options.pm_hash.attributes = {{"req", "loc"}};
  Engine engine(nfa, options,
                std::make_unique<StateShedder>(shedder_options,
                                               &schema_.registry));
  for (const auto& event : MakeStream(6)) {
    CEP_ASSERT_OK(engine.ProcessEvent(event));
  }
  CEP_ASSERT_OK(engine.Flush());
  const obs::CalibrationMonitor* calibration = engine.calibration();
  ASSERT_NE(calibration, nullptr);
  EXPECT_GT(calibration->outcomes(), 0u);
  EXPECT_GT(calibration->shed_observations(), 0u);
}

TEST_F(ShadowOracleTest, SloObservesEveryEvent) {
  const NfaPtr nfa = CompileQuery();
  const std::vector<EventPtr> events = MakeStream(2);
  Engine engine(nfa, QualityOptions());
  for (const auto& event : events) CEP_ASSERT_OK(engine.ProcessEvent(event));
  const obs::ThetaSloMonitor* slo = engine.theta_slo();
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->events(), events.size());
  // θ = 0 disables violation accounting entirely.
  EXPECT_EQ(slo->violating_events(), 0u);
}

}  // namespace
}  // namespace cep
