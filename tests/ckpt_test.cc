// Checkpoint/restore subsystem tests: snapshot format validation and
// corruption taxonomy, checkpoint-directory recovery semantics, and the
// tentpole property — a restored engine replays byte-identically to the
// uninterrupted run, for every (threads, shards) configuration.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "ckpt/snapshot.h"
#include "engine/engine.h"
#include "engine/multi.h"
#include "obs/audit.h"
#include "shedding/random_shedder.h"
#include "shedding/state_shedder.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  // Start empty so reruns do not see a previous invocation's snapshots.
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(handle)) {
      const std::string entry_name = entry->d_name;
      if (entry_name == "." || entry_name == "..") continue;
      ::unlink((dir + "/" + entry_name).c_str());
    }
    ::closedir(handle);
  }
  return dir;
}

// --- snapshot format ---------------------------------------------------------

TEST(SnapshotFormatTest, RoundTrip) {
  ckpt::SnapshotBuilder builder(/*stream_offset=*/42);
  builder.AddSection("alpha", "payload-a");
  builder.AddSection("beta", std::string("nul\0payload", 11));
  const std::string bytes = builder.Finish();

  CEP_ASSERT_OK_AND_ASSIGN(ckpt::SnapshotView view,
                           ckpt::ParseSnapshot(bytes));
  EXPECT_EQ(view.version, ckpt::kSnapshotVersion);
  EXPECT_EQ(view.stream_offset, 42u);
  ASSERT_EQ(view.sections.size(), 2u);
  EXPECT_EQ(view.sections[0].name, "alpha");
  EXPECT_EQ(view.sections[0].payload, "payload-a");
  EXPECT_EQ(view.sections[1].payload, std::string("nul\0payload", 11));
  ASSERT_NE(view.Find("beta"), nullptr);
  EXPECT_EQ(view.Find("gamma"), nullptr);
}

TEST(SnapshotFormatTest, FlippedPayloadByteIsDataLoss) {
  ckpt::SnapshotBuilder builder(7);
  builder.AddSection("alpha", "payload-a");
  std::string bytes = builder.Finish();
  bytes[bytes.size() / 2] ^= 0x40;
  const Result<ckpt::SnapshotView> view = ckpt::ParseSnapshot(bytes);
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsDataLoss()) << view.status().ToString();
}

TEST(SnapshotFormatTest, BadMagicIsParseError) {
  ckpt::SnapshotBuilder builder(7);
  builder.AddSection("alpha", "payload-a");
  std::string bytes = builder.Finish();
  bytes[0] = 'X';
  const Result<ckpt::SnapshotView> view = ckpt::ParseSnapshot(bytes);
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsParseError()) << view.status().ToString();
}

TEST(SnapshotFormatTest, EveryTruncationIsRejected) {
  ckpt::SnapshotBuilder builder(7);
  builder.AddSection("alpha", "payload-a");
  const std::string bytes = builder.Finish();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const Result<ckpt::SnapshotView> view =
        ckpt::ParseSnapshot(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(view.ok()) << "truncated to " << cut << " bytes parsed";
  }
}

TEST(SnapshotFormatTest, EqualStateProducesIdenticalBytes) {
  ckpt::SnapshotBuilder a(9), b(9);
  a.AddSection("alpha", "payload");
  b.AddSection("alpha", "payload");
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(SnapshotFormatTest, NestedSnapshotEqualsCopiedBlob) {
  // A snapshot nested in place must be byte-for-byte the old layout: the
  // inner snapshot finished on its own, then copied in as a section.
  ckpt::SnapshotBuilder inner(5);
  inner.AddSection("x", "inner-x");
  inner.AddSection("y", "");
  ckpt::SnapshotBuilder copied(9);
  copied.AddSection("head", "h");
  copied.AddSection("nested", inner.Finish());
  copied.AddSection("tail", "t");

  ckpt::SnapshotBuilder in_place(9);
  in_place.AddSection("head", "h");
  CEP_ASSERT_OK(in_place.AddNestedSnapshot(
      "nested", 5, [](ckpt::SnapshotBuilder& nested) {
        nested.AddSection("x", "inner-x");
        nested.AddSection("y", "");
        return Status::OK();
      }));
  in_place.AddSection("tail", "t");
  const std::string expected = copied.Finish();
  EXPECT_EQ(in_place.Finish(), expected);

  // Sealing later (on the checkpoint writer) yields the same bytes.
  ckpt::SnapshotBuilder deferred(9);
  deferred.AddSection("head", "h");
  CEP_ASSERT_OK(deferred.AddNestedSnapshot(
      "nested", 5, [](ckpt::SnapshotBuilder& nested) {
        nested.AddSection("x", "inner-x");
        nested.AddSection("y", "");
        return Status::OK();
      }));
  deferred.AddSection("tail", "t");
  EXPECT_EQ(std::move(deferred.FinishUnsealed()).Seal(), expected);
  CEP_EXPECT_OK(ckpt::ParseSnapshot(expected).status());
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(ckpt::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::Crc32("", 0), 0u);
  EXPECT_EQ(ckpt::Crc32Bytewise("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::Crc32Bytewise("", 0), 0u);
}

TEST(Crc32Test, SlicedEqualsBytewiseAtEveryLengthAndAlignment) {
  uint8_t buffer[64 + 8];
  uint32_t x = 0x12345678u;
  for (uint8_t& byte : buffer) {
    x = x * 1664525u + 1013904223u;
    byte = static_cast<uint8_t>(x >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(ckpt::Crc32(buffer + align, length),
                ckpt::Crc32Bytewise(buffer + align, length))
          << "align " << align << " length " << length;
    }
  }
}

TEST(SnapshotFileNameTest, RoundTripsAndRejectsStrangers) {
  const std::string name = ckpt::SnapshotFileName(12345);
  CEP_ASSERT_OK_AND_ASSIGN(uint64_t offset,
                           ckpt::ParseSnapshotFileName(name));
  EXPECT_EQ(offset, 12345u);
  EXPECT_FALSE(ckpt::ParseSnapshotFileName("ckpt-123.cep.tmp").ok());
  EXPECT_FALSE(ckpt::ParseSnapshotFileName("notes.txt").ok());
  EXPECT_FALSE(ckpt::ParseSnapshotFileName("ckpt-12x45.cep").ok());
}

// --- checkpoint directory recovery ------------------------------------------

std::string SmallSnapshot(uint64_t offset, const std::string& payload) {
  ckpt::SnapshotBuilder builder(offset);
  builder.AddSection("alpha", payload);
  return builder.Finish();
}

TEST(CheckpointManagerTest, FindLatestPicksNewestValidSnapshot) {
  const std::string dir = TestDir("ckpt_find_latest");
  {
    ckpt::CheckpointManager manager(dir, /*keep=*/0);
    CEP_ASSERT_OK(manager.WriteNow(SmallSnapshot(100, "a"), 100));
    CEP_ASSERT_OK(manager.WriteNow(SmallSnapshot(200, "b"), 200));
    EXPECT_EQ(manager.snapshots_written(), 2u);
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string latest,
                           ckpt::CheckpointManager::FindLatest(dir));
  EXPECT_NE(latest.find(ckpt::SnapshotFileName(200)), std::string::npos);
}

TEST(CheckpointManagerTest, TornTempFileIsIgnored) {
  const std::string dir = TestDir("ckpt_torn_temp");
  {
    ckpt::CheckpointManager manager(dir, 0);
    CEP_ASSERT_OK(manager.WriteNow(SmallSnapshot(100, "a"), 100));
  }
  // A crash mid-write leaves a half-written temp file at a later offset.
  std::ofstream torn(dir + "/" + ckpt::SnapshotFileName(300) +
                     ckpt::kSnapshotTempSuffix);
  torn << "half-written garbage";
  torn.close();
  CEP_ASSERT_OK_AND_ASSIGN(std::string latest,
                           ckpt::CheckpointManager::FindLatest(dir));
  EXPECT_NE(latest.find(ckpt::SnapshotFileName(100)), std::string::npos);
}

TEST(CheckpointManagerTest, CorruptNewestFallsBackToPrevious) {
  const std::string dir = TestDir("ckpt_corrupt_newest");
  {
    ckpt::CheckpointManager manager(dir, 0);
    CEP_ASSERT_OK(manager.WriteNow(SmallSnapshot(100, "a"), 100));
    CEP_ASSERT_OK(manager.WriteNow(SmallSnapshot(200, "b"), 200));
  }
  // Flip one byte in the newest snapshot; recovery must use the older one.
  const std::string newest = dir + "/" + ckpt::SnapshotFileName(200);
  CEP_ASSERT_OK_AND_ASSIGN(std::string bytes, ckpt::ReadFileBytes(newest));
  bytes[bytes.size() / 2] ^= 0x01;
  CEP_ASSERT_OK(ckpt::WriteFileAtomic(newest, bytes));
  CEP_ASSERT_OK_AND_ASSIGN(std::string latest,
                           ckpt::CheckpointManager::FindLatest(dir));
  EXPECT_NE(latest.find(ckpt::SnapshotFileName(100)), std::string::npos);
}

TEST(CheckpointManagerTest, PrunesToKeepCount) {
  const std::string dir = TestDir("ckpt_prune");
  ckpt::CheckpointManager manager(dir, /*keep=*/2);
  for (uint64_t offset = 100; offset <= 500; offset += 100) {
    CEP_ASSERT_OK(manager.WriteNow(SmallSnapshot(offset, "x"), offset));
  }
  EXPECT_FALSE(
      ckpt::ReadFileBytes(dir + "/" + ckpt::SnapshotFileName(300)).ok());
  EXPECT_TRUE(
      ckpt::ReadFileBytes(dir + "/" + ckpt::SnapshotFileName(400)).ok());
  EXPECT_TRUE(
      ckpt::ReadFileBytes(dir + "/" + ckpt::SnapshotFileName(500)).ok());
}

TEST(CheckpointManagerTest, AsyncSubmitIsDurableAfterFlush) {
  const std::string dir = TestDir("ckpt_async");
  ckpt::CheckpointManager manager(dir, 0);
  // The writer thread seals the snapshot: the file equals a sealed one.
  ckpt::SnapshotBuilder builder(700);
  builder.AddSection("alpha", "async");
  manager.SubmitAsync(builder.FinishUnsealed(), 700);
  CEP_ASSERT_OK(manager.Flush());
  CEP_ASSERT_OK_AND_ASSIGN(std::string latest,
                           ckpt::CheckpointManager::FindLatest(dir));
  EXPECT_NE(latest.find(ckpt::SnapshotFileName(700)), std::string::npos);
  EXPECT_EQ(manager.snapshots_written(), 1u);
  CEP_ASSERT_OK_AND_ASSIGN(std::string written, ckpt::ReadFileBytes(latest));
  EXPECT_EQ(written, SmallSnapshot(700, "async"));
}

// --- engine replay determinism ----------------------------------------------

constexpr const char* kKleeneQuery =
    "PATTERN SEQ(req a, avail+ b[], unlock c) WITHIN 30 min";

std::vector<EventPtr> MakeWorkload(BikeSchema& fixture, int n) {
  std::vector<EventPtr> events;
  Timestamp ts = kMinute;
  for (int i = 0; i < n; ++i) {
    ts += kSecond;
    const int64_t loc = i % 5;
    switch (i % 3) {
      case 0:
        events.push_back(fixture.Req(ts, loc, i % 17));
        break;
      case 1:
        events.push_back(fixture.Avail(ts, loc, i % 7));
        break;
      default:
        events.push_back(fixture.Unlock(ts, loc, i % 17, i % 7));
        break;
    }
  }
  return events;
}

EngineOptions CheckpointedOptions(size_t threads, size_t shards,
                                  bool with_quality = false) {
  EngineOptions options;
  options.collect_matches = true;
  options.max_runs = 96;  // deterministic overload trigger
  options.parallel.threads = threads;
  options.parallel.shards = shards;
  options.parallel.min_parallel_runs = 1;
  if (with_quality) {
    options.quality.shadow.sample_every = 1;
    // The Kleene query explodes without the primary's max_runs cap; a small
    // ghost cap makes overloaded spans abort (deterministically) instead of
    // burning minutes of unshed evaluation.
    options.quality.shadow.max_ghost_runs = 512;
    options.quality.calibration.enabled = true;
    options.quality.slo.enabled = true;
  }
  return options;
}

ShedderPtr MakeSbls(const SchemaRegistry& registry) {
  StateShedderOptions options;
  options.pm_hash.attributes = {{"req", "loc"}};
  options.time_slices = 4;
  options.scoring.weight_contribution = 2.0;
  return std::make_unique<StateShedder>(options, &registry);
}

/// Per-section fingerprint of a snapshot, so a determinism failure names the
/// diverging component instead of dumping megabytes of raw bytes.
std::string DescribeSections(const std::string& snapshot) {
  Result<ckpt::SnapshotView> view = ckpt::ParseSnapshot(snapshot);
  if (!view.ok()) return "unparseable: " + view.status().ToString();
  std::string out;
  for (const ckpt::SnapshotSection& section : view.ValueOrDie().sections) {
    out += section.name + ":" + std::to_string(section.payload.size()) +
           ":" + std::to_string(section.digest) + "\n";
  }
  return out;
}

struct RunOutcome {
  std::string final_snapshot;
  std::string metrics;
  std::string audit;
  std::string quality;
  std::vector<std::string> matches;
};

RunOutcome Drive(Engine& engine, obs::ShedAuditLog& audit,
                 const std::vector<EventPtr>& events, size_t from) {
  for (size_t i = from; i < events.size(); ++i) {
    CEP_EXPECT_OK(engine.OfferEvent(events[i]));
  }
  RunOutcome outcome;
  Result<std::string> snapshot = engine.SerializeSnapshot();
  CEP_EXPECT_OK(snapshot.status());
  if (snapshot.ok()) outcome.final_snapshot = snapshot.MoveValueUnsafe();
  outcome.metrics = engine.metrics().ToString();
  outcome.audit = audit.ToJsonl();
  outcome.quality = engine.ExportQualityJson();
  for (const Match& match : engine.matches()) {
    outcome.matches.push_back(match.ToString(engine.nfa().query()));
  }
  return outcome;
}

TEST(EngineReplayTest, RestoredRunIsByteIdenticalAcrossThreadsAndShards) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = MakeWorkload(fixture, 300);
  const size_t half = events.size() / 2;

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const size_t shards : {size_t{1}, size_t{8}}) {
    for (const bool with_quality : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shards
                   << " quality=" << with_quality);
      const NfaPtr nfa = fixture.Compile(kKleeneQuery);
      ASSERT_NE(nfa, nullptr);
      const EngineOptions options =
          CheckpointedOptions(threads, shards, with_quality);

      // Uninterrupted baseline.
      obs::ShedAuditLog baseline_audit;
      Engine baseline(nfa, options, MakeSbls(fixture.registry));
      baseline.AttachAuditLog(&baseline_audit);
      const RunOutcome expected = Drive(baseline, baseline_audit, events, 0);
      ASSERT_FALSE(expected.final_snapshot.empty());
      EXPECT_GT(baseline.metrics().shed_triggers, 0u)
          << "workload never sheds; the test is not exercising SBLS state";

      // Interrupted at the midpoint: snapshot, then resume in a fresh
      // engine and finish the stream.
      obs::ShedAuditLog first_audit;
      Engine first_half(nfa, options, MakeSbls(fixture.registry));
      first_half.AttachAuditLog(&first_audit);
      for (size_t i = 0; i < half; ++i) {
        CEP_ASSERT_OK(first_half.OfferEvent(events[i]));
      }
      CEP_ASSERT_OK_AND_ASSIGN(std::string mid_snapshot,
                               first_half.SerializeSnapshot());

      obs::ShedAuditLog resumed_audit;
      Engine resumed(nfa, options, MakeSbls(fixture.registry));
      resumed.AttachAuditLog(&resumed_audit);
      CEP_ASSERT_OK(resumed.RestoreFromSnapshot(mid_snapshot));
      EXPECT_EQ(resumed.stream_offset(), half);
      const RunOutcome actual = Drive(resumed, resumed_audit, events, half);

      EXPECT_EQ(actual.matches, expected.matches);
      EXPECT_EQ(actual.metrics, expected.metrics);
      EXPECT_EQ(actual.audit, expected.audit);
      EXPECT_EQ(actual.quality, expected.quality);
      EXPECT_EQ(DescribeSections(actual.final_snapshot),
                DescribeSections(expected.final_snapshot))
          << "restored engine state diverged from the uninterrupted run";
      EXPECT_TRUE(actual.final_snapshot == expected.final_snapshot);
    }
    }
  }
}

TEST(EngineReplayTest, SnapshotIsIndependentOfThreadCount) {
  // The snapshot written by a 4-thread engine must restore into a 1-thread
  // engine (and vice versa): parallelism is execution strategy, not state.
  BikeSchema fixture;
  const std::vector<EventPtr> events = MakeWorkload(fixture, 200);
  const NfaPtr nfa = fixture.Compile(kKleeneQuery);
  ASSERT_NE(nfa, nullptr);

  Engine parallel_engine(nfa, CheckpointedOptions(4, 8),
                         MakeSbls(fixture.registry));
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(parallel_engine.OfferEvent(event));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string parallel_snapshot,
                           parallel_engine.SerializeSnapshot());

  Engine serial_engine(nfa, CheckpointedOptions(1, 1),
                       MakeSbls(fixture.registry));
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(serial_engine.OfferEvent(event));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string serial_snapshot,
                           serial_engine.SerializeSnapshot());
  EXPECT_EQ(parallel_snapshot, serial_snapshot);

  Engine restored(nfa, CheckpointedOptions(1, 1), MakeSbls(fixture.registry));
  CEP_ASSERT_OK(restored.RestoreFromSnapshot(parallel_snapshot));
  EXPECT_EQ(restored.num_runs(), parallel_engine.num_runs());
  EXPECT_EQ(restored.matches().size(), parallel_engine.matches().size());
}

TEST(EngineReplayTest, RestoreIntoDifferentShedderIsConfigMismatch) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = MakeWorkload(fixture, 60);
  const NfaPtr nfa = fixture.Compile(kKleeneQuery);
  ASSERT_NE(nfa, nullptr);

  Engine sbls_engine(nfa, CheckpointedOptions(1, 1),
                     MakeSbls(fixture.registry));
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(sbls_engine.OfferEvent(event));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string snapshot,
                           sbls_engine.SerializeSnapshot());

  // The shedder kind is encoded in the section name ("shedder.SBLS"), so a
  // restore into an RBLS engine fails loudly instead of silently mixing
  // learned state across strategies.
  Engine rbls_engine(nfa, CheckpointedOptions(1, 1),
                     std::make_unique<RandomShedder>(1));
  const Status status = rbls_engine.RestoreFromSnapshot(snapshot);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
}

TEST(EngineReplayTest, CheckpointDirectoryEndToEnd) {
  const std::string dir = TestDir("ckpt_engine_dir");
  BikeSchema fixture;
  const std::vector<EventPtr> events = MakeWorkload(fixture, 250);
  const NfaPtr nfa = fixture.Compile(kKleeneQuery);
  ASSERT_NE(nfa, nullptr);

  EngineOptions options = CheckpointedOptions(1, 1);
  options.checkpoint.directory = dir;
  options.checkpoint.interval_events = 50;
  options.checkpoint.synchronous = true;
  {
    Engine engine(nfa, options, MakeSbls(fixture.registry));
    for (const EventPtr& event : events) {
      CEP_ASSERT_OK(engine.OfferEvent(event));
    }
    CEP_ASSERT_OK(engine.FlushCheckpoints());
    EXPECT_EQ(engine.checkpoints_written(), 5u);
  }

  // Restore from the directory (newest valid snapshot = offset 250) and
  // compare against a cold run over the same events.
  EngineOptions restore_options = CheckpointedOptions(1, 1);
  Engine restored(nfa, restore_options, MakeSbls(fixture.registry));
  CEP_ASSERT_OK(restored.RestoreFromFile(dir));
  EXPECT_EQ(restored.stream_offset(), 250u);

  Engine cold(nfa, restore_options, MakeSbls(fixture.registry));
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(cold.OfferEvent(event));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string cold_snapshot,
                           cold.SerializeSnapshot());
  CEP_ASSERT_OK_AND_ASSIGN(std::string restored_snapshot,
                           restored.SerializeSnapshot());
  EXPECT_EQ(restored_snapshot, cold_snapshot);
}

TEST(MultiEngineCheckpointTest, RoundTripAcrossQueries) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = MakeWorkload(fixture, 150);
  const size_t half = events.size() / 2;
  const NfaPtr nfa_a = fixture.Compile(kKleeneQuery);
  const NfaPtr nfa_b = fixture.Compile(
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 30 min");
  ASSERT_NE(nfa_a, nullptr);
  ASSERT_NE(nfa_b, nullptr);

  auto build = [&](MultiEngine& multi) {
    multi.AddQuery(nfa_a, CheckpointedOptions(1, 1),
                   MakeSbls(fixture.registry), "kleene");
    multi.AddQuery(nfa_b, CheckpointedOptions(1, 1),
                   std::make_unique<RandomShedder>(11), "pair");
  };

  MultiEngine baseline;
  build(baseline);
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(baseline.OfferEvent(event));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string expected,
                           baseline.SerializeSnapshot());

  MultiEngine interrupted;
  build(interrupted);
  for (size_t i = 0; i < half; ++i) {
    CEP_ASSERT_OK(interrupted.OfferEvent(events[i]));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string mid, interrupted.SerializeSnapshot());

  MultiEngine resumed;
  build(resumed);
  CEP_ASSERT_OK(resumed.RestoreFromSnapshot(mid));
  EXPECT_EQ(resumed.stream_offset(), half);
  for (size_t i = half; i < events.size(); ++i) {
    CEP_ASSERT_OK(resumed.OfferEvent(events[i]));
  }
  CEP_ASSERT_OK_AND_ASSIGN(std::string actual, resumed.SerializeSnapshot());
  EXPECT_EQ(actual, expected);

  // Query-count mismatch is a configuration error, not silent truncation.
  MultiEngine wrong_count;
  wrong_count.AddQuery(nfa_a, CheckpointedOptions(1, 1),
                       MakeSbls(fixture.registry), "kleene");
  const Status status = wrong_count.RestoreFromSnapshot(mid);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
}

}  // namespace
}  // namespace cep
