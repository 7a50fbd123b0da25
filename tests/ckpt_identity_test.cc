// Snapshot byte-identity pins. The digests below are FNV-1a of whole
// snapshot files written by an Engine, an optimised MultiEngine and a
// two-query SBLS TenantSession over seeded traces, at several stream
// offsets. Serialization may change how it encodes, never what it writes:
// a change to these bytes is a format change and needs a new snapshot
// version, not new pins.
//
// The warm-versus-cold tests cover the append-only match encoding: a
// snapshot taken after earlier snapshots, a restore or TakeMatches() must
// equal the one an engine that never did those writes.

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "engine/multi.h"
#include "event/csv.h"
#include "service/tenant.h"
#include "shedding/state_shedder.h"
#include "test_util.h"
#include "workload/google_trace.h"

namespace cep {
namespace {

using service::TenantSession;
using testing_util::BikeSchema;

struct Pin {
  uint64_t offset;
  uint64_t size;
  uint64_t digest;
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void ExpectPinned(const std::string& snapshot, const Pin& pin) {
  SCOPED_TRACE(testing::Message() << "offset " << pin.offset);
  EXPECT_EQ(snapshot.size(), pin.size);
  EXPECT_EQ(HashBytes(snapshot.data(), snapshot.size()), pin.digest)
      << StrFormat("actual digest 0x%016llx",
                   static_cast<unsigned long long>(
                       HashBytes(snapshot.data(), snapshot.size())));
}

// --- fixtures ---------------------------------------------------------------

std::string ClusterQ1(int window_hours, int max_priority) {
  return StrFormat(
      "PATTERN SEQ(submit s, schedule c, evict e) "
      "WHERE s.job_id = c.job_id, s.task_idx = c.task_idx, "
      "c.job_id = e.job_id, c.task_idx = e.task_idx, s.priority <= %d "
      "WITHIN %d hours "
      "RETURN churn(job = s.job_id, task = s.task_idx, "
      "machine = c.machine_id, priority = s.priority)",
      max_priority, window_hours);
}

std::string ClusterQ2(int window_hours) {
  return StrFormat(
      "PATTERN SEQ(schedule a, fail b, schedule c) "
      "WHERE a.job_id = b.job_id, a.task_idx = b.task_idx, "
      "b.job_id = c.job_id, b.task_idx = c.task_idx "
      "WITHIN %d hours "
      "RETURN flap(job = a.job_id, task = a.task_idx, "
      "machine_was = a.machine_id, machine_now = c.machine_id)",
      window_hours);
}

struct ClusterTrace {
  SchemaRegistry registry;
  std::vector<EventPtr> events;
};

std::unique_ptr<ClusterTrace> MakeClusterTrace(uint64_t seed) {
  auto trace = std::make_unique<ClusterTrace>();
  EXPECT_TRUE(GoogleTraceGenerator::RegisterSchemas(&trace->registry).ok());
  GoogleTraceOptions options;
  options.duration = 4 * kHour;
  options.jobs_per_hour = 150.0;
  options.seed = seed;
  Result<std::vector<EventPtr>> events =
      GoogleTraceGenerator(options).Generate(trace->registry);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  if (events.ok()) trace->events = events.MoveValueUnsafe();
  return trace;
}

NfaPtr CompileOn(const SchemaRegistry& registry, const std::string& text) {
  auto parsed = ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return nullptr;
  auto analyzed = Analyze(parsed.MoveValueUnsafe(), registry);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  if (!analyzed.ok()) return nullptr;
  auto nfa = CompileToNfa(analyzed.MoveValueUnsafe());
  EXPECT_TRUE(nfa.ok()) << nfa.status().ToString();
  return nfa.ok() ? nfa.MoveValueUnsafe() : nullptr;
}

constexpr const char* kKleeneQuery =
    "PATTERN SEQ(req a, avail+ b[], unlock c) WITHIN 30 min";

std::vector<EventPtr> BikeWorkload(BikeSchema& fixture, int n) {
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

/// SBLS over the Kleene query with every quality monitor on, so the pins
/// cover the shadow oracle's nested ghost snapshot and the monitors'
/// sections as well as runs with long Kleene chains.
std::unique_ptr<Engine> MakeKleeneEngine(BikeSchema& fixture) {
  EngineOptions options;
  options.collect_matches = true;
  options.max_runs = 96;
  options.quality.shadow.sample_every = 1;
  options.quality.shadow.max_ghost_runs = 512;
  options.quality.calibration.enabled = true;
  options.quality.slo.enabled = true;
  StateShedderOptions sbls;
  sbls.pm_hash.attributes = {{"req", "loc"}};
  sbls.time_slices = 4;
  sbls.scoring.weight_contribution = 2.0;
  return std::make_unique<Engine>(
      fixture.Compile(kKleeneQuery), options,
      std::make_unique<StateShedder>(sbls, &fixture.registry));
}

/// Cluster Q1 under SBLS, as a tenant would run it, with matches collected.
std::unique_ptr<Engine> MakeClusterEngine(const ClusterTrace& trace) {
  auto kv = service::ParseKvSpec(
      "theta=80 shedder=sbls hash=submit:priority,schedule:machine_id "
      "bucket=4 slices=16 wplus=4 wminus=1 seed=23");
  EXPECT_TRUE(kv.ok());
  auto options = service::MakeEngineOptionsFromSpec(kv.ValueOrDie(), 0.0, 0);
  auto shedder = service::MakeShedderFromSpec(kv.ValueOrDie(), trace.registry);
  EXPECT_TRUE(options.ok() && shedder.ok());
  return std::make_unique<Engine>(CompileOn(trace.registry, ClusterQ1(3, 5)),
                                  options.ValueOrDie(),
                                  shedder.MoveValueUnsafe());
}

void BuildOptimizedPanel(const ClusterTrace& trace, MultiEngine* multi) {
  EngineOptions options;
  options.collect_matches = true;
  options.latency_mode = LatencyMode::kVirtualCost;
  // Queries 0 and 1 are identical, so the optimizer merges them onto one
  // physical engine; the layout then has 3 engine sections and "opt".
  for (const std::string& text : {ClusterQ1(3, 5), ClusterQ1(3, 5),
                                  ClusterQ2(3), ClusterQ1(5, 8)}) {
    multi->AddQuery(CompileOn(trace.registry, text), options);
  }
  ASSERT_TRUE(multi->Optimize().ok());
  ASSERT_EQ(multi->num_engines(), 3u);
}

constexpr const char* kTenantSpecs[] = {
    "theta=80 shedder=sbls "
    "hash=submit:priority,schedule:machine_id,schedule:priority "
    "bucket=4 slices=16 wplus=4 wminus=1 seed=23414",
    "theta=80 shedder=sbls "
    "hash=schedule:machine_id,schedule:sched_class,fail:machine_id "
    "bucket=4 slices=16 wplus=4 wminus=1 seed=23415"};

std::unique_ptr<TenantSession> MakeTenant(const std::string& root,
                                          size_t interval) {
  TenantSession::Config config;
  config.tenant = "t0";
  config.root = root;
  config.ckpt_keep = 0;
  config.checkpoint_interval_events = interval;
  auto session = TenantSession::Create(config);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return nullptr;
  std::unique_ptr<TenantSession> out = session.MoveValueUnsafe();
  EXPECT_TRUE(out->ApplySchemaCommand({"cluster"}).ok());
  EXPECT_TRUE(out->AddQuery("q1", kTenantSpecs[0], ClusterQ1(3, 5)).ok());
  EXPECT_TRUE(out->AddQuery("q2", kTenantSpecs[1], ClusterQ2(3)).ok());
  return out;
}

std::vector<std::string> TenantLines() {
  const auto trace = MakeClusterTrace(/*seed=*/6);
  std::vector<std::string> lines;
  for (const EventPtr& event : trace->events) {
    lines.push_back(EventToCsvLine(*event));
  }
  return lines;
}

std::string ReadSnapshot(const std::string& dir, uint64_t offset) {
  Result<std::string> bytes =
      ckpt::ReadFileBytes(dir + "/" + ckpt::SnapshotFileName(offset));
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.MoveValueUnsafe() : std::string();
}

// --- pins ---------------------------------------------------------------------
//
// {stream offset, snapshot size, FNV-1a of the snapshot bytes}, recorded
// from the serializers as they were before the encoder was rewritten for
// speed (bytewise CRC, per-event strings, whole re-encoding each time).

const Pin kEnginePins[] = {
    {100, 197382, 0xe0b0f87ba8c3f26dULL},
    {200, 363230, 0x7ac474ec80c2a6acULL},
    {300, 529077, 0xa1c698d256e05112ULL},
};

const Pin kClusterEnginePins[] = {
    {1000, 153313, 0xde30037bd80d133bULL},
    {3000, 446166, 0xfa82043346140421ULL},
    {5000, 669872, 0xf3794555aa7db8e1ULL},
};

const Pin kMultiEnginePins[] = {
    {1000, 388202, 0xee0a6f2c094f8341ULL},
    {3000, 1126433, 0x1c2f017aceb1dfdfULL},
    {5000, 1873408, 0xdcc2cde40f427d81ULL},
};

const Pin kTenantPins[] = {
    {768, 177170, 0x4fa255b245d2b291ULL},
    {1792, 445148, 0xa7182c2269b84af2ULL},
    {3072, 722724, 0xa9431d2f4170fb3cULL},
};

TEST(SnapshotBytesTest, KleeneEngineWithQualityMonitorsIsPinned) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = BikeWorkload(fixture, 300);
  std::unique_ptr<Engine> engine = MakeKleeneEngine(fixture);
  size_t fed = 0;
  for (const Pin& pin : kEnginePins) {
    for (; fed < pin.offset; ++fed) {
      CEP_ASSERT_OK(engine->OfferEvent(events[fed]));
    }
    CEP_ASSERT_OK_AND_ASSIGN(std::string snapshot, engine->SerializeSnapshot());
    ExpectPinned(snapshot, pin);
  }
}

TEST(SnapshotBytesTest, ClusterEngineIsPinned) {
  const auto trace = MakeClusterTrace(/*seed=*/5);
  ASSERT_GE(trace->events.size(), 5000u);
  std::unique_ptr<Engine> engine = MakeClusterEngine(*trace);
  size_t fed = 0;
  for (const Pin& pin : kClusterEnginePins) {
    for (; fed < pin.offset; ++fed) {
      CEP_ASSERT_OK(engine->OfferEvent(trace->events[fed]));
    }
    CEP_ASSERT_OK_AND_ASSIGN(std::string snapshot, engine->SerializeSnapshot());
    ExpectPinned(snapshot, pin);
  }
  EXPECT_GT(engine->matches().size(), 0u);
  EXPECT_GT(engine->metrics().runs_shed, 0u);
}

TEST(SnapshotBytesTest, OptimizedMultiEngineIsPinned) {
  const auto trace = MakeClusterTrace(/*seed=*/5);
  ASSERT_GE(trace->events.size(), 5000u);
  MultiEngine multi;
  BuildOptimizedPanel(*trace, &multi);
  size_t fed = 0;
  for (const Pin& pin : kMultiEnginePins) {
    for (; fed < pin.offset; ++fed) {
      CEP_ASSERT_OK(multi.OfferEvent(trace->events[fed]));
    }
    CEP_ASSERT_OK_AND_ASSIGN(std::string snapshot, multi.SerializeSnapshot());
    ExpectPinned(snapshot, pin);
  }
}

TEST(SnapshotBytesTest, SynchronousTenantSnapshotsArePinned) {
  const std::string dir = FreshDir("pin_tenant_sync");
  const std::vector<std::string> lines = TenantLines();
  ASSERT_GE(lines.size(), 3072u);
  {
    std::unique_ptr<TenantSession> session =
        MakeTenant(dir + "/t0", /*interval=*/0);
    ASSERT_NE(session, nullptr);
    size_t fed = 0;
    for (const Pin& pin : kTenantPins) {
      for (; fed < pin.offset; ++fed) {
        CEP_ASSERT_OK(session->IngestLine(lines[fed]));
      }
      CEP_ASSERT_OK(session->Checkpoint(/*synchronous=*/true));
    }
  }
  for (const Pin& pin : kTenantPins) {
    ExpectPinned(ReadSnapshot(dir + "/t0/ckpts", pin.offset), pin);
  }
}

TEST(SnapshotBytesTest, BackgroundTenantSnapshotsArePinned) {
  // Automatic checkpoints every 256 events go through the background
  // writer, which may supersede a pending snapshot with a newer one; every
  // file it does write must carry the pinned bytes, and the last one is
  // always written (the session's destructor drains the writer).
  const std::string dir = FreshDir("pin_tenant_async");
  const std::vector<std::string> lines = TenantLines();
  const uint64_t last = kTenantPins[std::size(kTenantPins) - 1].offset;
  ASSERT_GE(lines.size(), last);
  {
    std::unique_ptr<TenantSession> session =
        MakeTenant(dir + "/t0", /*interval=*/256);
    ASSERT_NE(session, nullptr);
    for (size_t i = 0; i < last; ++i) {
      CEP_ASSERT_OK(session->IngestLine(lines[i]));
    }
  }
  size_t checked = 0;
  for (const Pin& pin : kTenantPins) {
    const std::string path =
        dir + "/t0/ckpts/" + ckpt::SnapshotFileName(pin.offset);
    if (::access(path.c_str(), F_OK) != 0) continue;
    ExpectPinned(ReadSnapshot(dir + "/t0/ckpts", pin.offset), pin);
    ++checked;
  }
  EXPECT_GE(checked, 1u);
  EXPECT_EQ(::access((dir + "/t0/ckpts/" + ckpt::SnapshotFileName(last)).c_str(),
                     F_OK),
            0);
}

// --- warm versus cold match encoding -------------------------------------------

/// Feeds trace events [from, to) to `engine`, snapshotting every `every`
/// events when `every` > 0 (warming the match encoding).
void Feed(Engine& engine, const ClusterTrace& trace, size_t from, size_t to,
          size_t every) {
  for (size_t i = from; i < to; ++i) {
    ASSERT_TRUE(engine.OfferEvent(trace.events[i]).ok());
    if (every > 0 && (i + 1) % every == 0) {
      ASSERT_TRUE(engine.SerializeSnapshot().ok());
    }
  }
}

TEST(MatchEncodingCacheTest, WarmSnapshotsEqualColdOne) {
  const auto trace = MakeClusterTrace(/*seed=*/5);
  const size_t n = 5000;
  ASSERT_GE(trace->events.size(), n);

  std::unique_ptr<Engine> cold = MakeClusterEngine(*trace);
  Feed(*cold, *trace, 0, n, /*every=*/0);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string expected,
                           cold->SerializeSnapshot());
  ASSERT_GT(cold->matches().size(), 0u);

  std::unique_ptr<Engine> warm = MakeClusterEngine(*trace);
  Feed(*warm, *trace, 0, n, /*every=*/250);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string actual,
                           warm->SerializeSnapshot());
  EXPECT_TRUE(actual == expected);
  // A repeated snapshot with nothing new is unchanged.
  CEP_ASSERT_OK_AND_ASSIGN(const std::string again, warm->SerializeSnapshot());
  EXPECT_TRUE(again == expected);
}

TEST(MatchEncodingCacheTest, RestoreThenContinueEqualsUninterrupted) {
  const auto trace = MakeClusterTrace(/*seed=*/5);
  const size_t n = 5000;
  const size_t cut = 2600;
  ASSERT_GE(trace->events.size(), n);

  std::unique_ptr<Engine> straight = MakeClusterEngine(*trace);
  Feed(*straight, *trace, 0, n, /*every=*/0);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string expected,
                           straight->SerializeSnapshot());

  std::unique_ptr<Engine> writer = MakeClusterEngine(*trace);
  Feed(*writer, *trace, 0, cut, /*every=*/400);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string mid, writer->SerializeSnapshot());
  ASSERT_GT(writer->matches().size(), 0u);

  // Restore into a fresh engine, and over a warm one: both must drop the
  // encoding of matches they no longer hold.
  std::unique_ptr<Engine> fresh = MakeClusterEngine(*trace);
  CEP_ASSERT_OK(fresh->RestoreFromSnapshot(mid));
  CEP_ASSERT_OK_AND_ASSIGN(const std::string restored,
                           fresh->SerializeSnapshot());
  EXPECT_TRUE(restored == mid);
  Feed(*fresh, *trace, cut, n, /*every=*/300);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string resumed,
                           fresh->SerializeSnapshot());
  EXPECT_TRUE(resumed == expected);

  Feed(*writer, *trace, cut, n, /*every=*/300);
  CEP_ASSERT_OK(writer->RestoreFromSnapshot(mid));
  Feed(*writer, *trace, cut, n, /*every=*/0);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string rewound,
                           writer->SerializeSnapshot());
  EXPECT_TRUE(rewound == expected);
}

TEST(MatchEncodingCacheTest, TakeMatchesThenContinueEqualsUninterrupted) {
  const auto trace = MakeClusterTrace(/*seed=*/5);
  const size_t n = 5000;
  const size_t cut = 2600;
  ASSERT_GE(trace->events.size(), n);

  std::unique_ptr<Engine> cold = MakeClusterEngine(*trace);
  Feed(*cold, *trace, 0, cut, /*every=*/0);
  const size_t taken = cold->TakeMatches().size();
  ASSERT_GT(taken, 0u);
  Feed(*cold, *trace, cut, n, /*every=*/0);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string expected,
                           cold->SerializeSnapshot());

  std::unique_ptr<Engine> warm = MakeClusterEngine(*trace);
  Feed(*warm, *trace, 0, cut, /*every=*/250);
  EXPECT_EQ(warm->TakeMatches().size(), taken);
  EXPECT_TRUE(warm->matches().empty());
  Feed(*warm, *trace, cut, n, /*every=*/250);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string actual,
                           warm->SerializeSnapshot());
  EXPECT_TRUE(actual == expected);
}

}  // namespace
}  // namespace cep
