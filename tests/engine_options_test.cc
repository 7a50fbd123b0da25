#include <gtest/gtest.h>

#include "engine/options.h"

namespace cep {
namespace {

testing::AssertionResult RejectedMentioning(const EngineOptions& options,
                                            const std::string& needle) {
  const Result<EngineOptions> validated = options.Validated();
  if (validated.ok()) {
    return testing::AssertionFailure() << "Validated() accepted the options";
  }
  if (!validated.status().IsInvalidArgument()) {
    return testing::AssertionFailure()
           << "expected InvalidArgument, got "
           << validated.status().ToString();
  }
  if (validated.status().ToString().find(needle) == std::string::npos) {
    return testing::AssertionFailure()
           << "message '" << validated.status().ToString()
           << "' does not mention '" << needle << "'";
  }
  return testing::AssertionSuccess();
}

TEST(EngineOptionsValidatedTest, DefaultsAreValid) {
  EXPECT_TRUE(EngineOptions{}.Validated().ok());
}

TEST(EngineOptionsValidatedTest, ValidatedReturnsTheOptions) {
  EngineOptions options;
  options.max_runs = 1234;
  const Result<EngineOptions> validated = options.Validated();
  ASSERT_TRUE(validated.ok());
  EXPECT_EQ(validated.ValueOrDie().max_runs, 1234u);
}

TEST(EngineOptionsValidatedTest, RejectsZeroBatchSize) {
  EngineOptions options;
  options.batch_size = 0;
  EXPECT_TRUE(RejectedMentioning(options, "batch_size"));
}

TEST(EngineOptionsValidatedTest, RejectsZeroLatencyWindow) {
  EngineOptions options;
  options.latency_window_events = 0;
  EXPECT_TRUE(RejectedMentioning(options, "latency_window_events"));
}

TEST(EngineOptionsValidatedTest, RejectsNonPositiveVirtualCost) {
  EngineOptions options;
  options.latency_mode = LatencyMode::kVirtualCost;
  options.virtual_ns_per_op = 0.0;
  EXPECT_TRUE(RejectedMentioning(options, "virtual_ns_per_op"));
  // Irrelevant under wall-clock measurement: accepted.
  options.latency_mode = LatencyMode::kWallClock;
  EXPECT_TRUE(options.Validated().ok());
}

TEST(EngineOptionsValidatedTest, RejectsNonPositiveTimeCompression) {
  EngineOptions options;
  options.latency_mode = LatencyMode::kQueueSimulation;
  options.queue_time_compression = 0.0;
  EXPECT_TRUE(RejectedMentioning(options, "queue_time_compression"));
}

TEST(EngineOptionsValidatedTest, RejectsShedFractionOutOfRange) {
  EngineOptions options;
  options.shed_amount.fraction = 0.0;
  EXPECT_TRUE(RejectedMentioning(options, "shed_amount.fraction"));
  options.shed_amount.fraction = 1.5;
  EXPECT_TRUE(RejectedMentioning(options, "shed_amount.fraction"));
  options.shed_amount.fraction = 1.0;
  EXPECT_TRUE(options.Validated().ok());
}

TEST(EngineOptionsValidatedTest, RejectsAdaptiveMaxFractionOutOfRange) {
  EngineOptions options;
  options.shed_amount.mode = ShedAmountOptions::Mode::kAdaptive;
  options.shed_amount.max_fraction = 0.0;
  EXPECT_TRUE(RejectedMentioning(options, "max_fraction"));
  // Fixed-fraction mode never reads max_fraction: accepted.
  options.shed_amount.mode = ShedAmountOptions::Mode::kFixedFraction;
  EXPECT_TRUE(options.Validated().ok());
}

TEST(EngineOptionsValidatedTest, RejectsNonIncreasingDegradationRatios) {
  EngineOptions options;
  options.degradation.enabled = true;
  options.degradation.shedding_enter_ratio = 2.0;
  options.degradation.emergency_enter_ratio = 2.0;  // not strictly above
  EXPECT_TRUE(RejectedMentioning(options, "strictly increasing"));
  // The same ratios are ignored while the ladder is disabled.
  options.degradation.enabled = false;
  EXPECT_TRUE(options.Validated().ok());
}

TEST(EngineOptionsValidatedTest, RejectsHysteresisOutOfRange) {
  EngineOptions options;
  options.degradation.enabled = true;
  options.degradation.hysteresis = 0.0;
  EXPECT_TRUE(RejectedMentioning(options, "hysteresis"));
  options.degradation.hysteresis = 1.25;
  EXPECT_TRUE(RejectedMentioning(options, "hysteresis"));
}

TEST(EngineOptionsValidatedTest, RejectsZeroCheckpointInterval) {
  EngineOptions options;
  options.checkpoint.directory = "/tmp/ckpts";
  options.checkpoint.interval_events = 0;
  EXPECT_TRUE(RejectedMentioning(options, "interval_events"));
  // Interval is irrelevant while checkpointing is disabled.
  options.checkpoint.directory.clear();
  EXPECT_TRUE(options.Validated().ok());
}

TEST(EngineOptionsValidatedTest, RejectsRestoreUnderFaultInjection) {
  EngineOptions options;
  options.checkpoint.restore_from = "/tmp/ckpts";
  options.checkpoint.fault_injection_active = true;
  EXPECT_TRUE(RejectedMentioning(options, "fault injection"));
  options.checkpoint.fault_injection_active = false;
  EXPECT_TRUE(options.Validated().ok());
}

}  // namespace
}  // namespace cep
