// Service-layer unit tests: wire framing, the per-tenant WAL, quota
// admission, checkpoint path safety, and TenantSession exactly-once
// recovery. The end-to-end daemon (sockets, signals, SIGKILL chaos) is
// covered by tests/server_smoke_test.sh and stress_engine --server.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "event/csv.h"
#include "obs/metrics.h"
#include "opt/fingerprint.h"
#include "service/framing.h"
#include "service/quota.h"
#include "service/tenant.h"
#include "service/wal.h"
#include "test_util.h"

namespace cep {
namespace {

using service::EncodeFrame;
using service::FrameReader;
using service::QuotaAllocator;
using service::TenantSession;
using service::Wal;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// FrameReader
// ---------------------------------------------------------------------------

TEST(FrameReaderTest, TextLineAcrossFeeds) {
  FrameReader reader;
  reader.Feed("hel", 3);
  EXPECT_FALSE(reader.Next().ValueOrDie().have);
  EXPECT_TRUE(reader.mid_message());
  reader.Feed("lo\r\n", 4);
  const auto message = reader.Next().ValueOrDie();
  ASSERT_TRUE(message.have);
  EXPECT_FALSE(message.binary);
  EXPECT_EQ(message.payload, "hello");  // '\r' stripped
  EXPECT_FALSE(reader.mid_message());
}

TEST(FrameReaderTest, BinaryFrameByteAtATime) {
  const std::string frame = EncodeFrame("a\nb");
  ASSERT_EQ(frame.size(), service::kFrameHeaderBytes + 3);
  EXPECT_EQ(static_cast<uint8_t>(frame[0]), service::kFrameMagic);
  FrameReader reader;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.Feed(frame.data() + i, 1);
    EXPECT_FALSE(reader.Next().ValueOrDie().have);
  }
  reader.Feed(frame.data() + frame.size() - 1, 1);
  const auto message = reader.Next().ValueOrDie();
  ASSERT_TRUE(message.have);
  EXPECT_TRUE(message.binary);
  EXPECT_EQ(message.payload, "a\nb");  // newline survives framing
}

TEST(FrameReaderTest, MixedTextAndBinaryInOneBuffer) {
  const std::string wire = "first\n" + EncodeFrame("second") + "third\n";
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  std::vector<std::string> payloads;
  for (;;) {
    const auto message = reader.Next().ValueOrDie();
    if (!message.have) break;
    payloads.push_back(message.payload);
  }
  EXPECT_EQ(payloads,
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(FrameReaderTest, OversizedLineQuarantinesAndResyncs) {
  FrameReader reader(/*max_message_bytes=*/8);
  const std::string wire = "way-too-long-for-the-bound\nok\n";
  reader.Feed(wire.data(), wire.size());
  const auto oversized = reader.Next();
  ASSERT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsOutOfRange())
      << oversized.status().ToString();
  EXPECT_NE(oversized.status().ToString().find("oversized_line"),
            std::string::npos)
      << oversized.status().ToString();
  const auto next = reader.Next().ValueOrDie();
  ASSERT_TRUE(next.have);
  EXPECT_EQ(next.payload, "ok");
}

TEST(FrameReaderTest, OversizedFrameDiscardsBodyWithoutBuffering) {
  FrameReader reader(/*max_message_bytes=*/8);
  const std::string wire =
      EncodeFrame(std::string(1 << 16, 'x')) + EncodeFrame("ok");
  // Drip-feed so the discard path runs while the body is still arriving;
  // the reader must never buffer the declared 64 KiB.
  size_t fed = 0;
  bool saw_error = false;
  std::string payload;
  while (fed < wire.size()) {
    const size_t chunk = std::min<size_t>(4096, wire.size() - fed);
    reader.Feed(wire.data() + fed, chunk);
    fed += chunk;
    EXPECT_LE(reader.buffered_bytes(), 4096u + service::kFrameHeaderBytes);
    for (;;) {
      const auto message = reader.Next();
      if (!message.ok()) {
        EXPECT_TRUE(message.status().IsOutOfRange());
        EXPECT_NE(message.status().ToString().find("oversized_frame"),
                  std::string::npos);
        saw_error = true;
        continue;
      }
      if (!message.ValueOrDie().have) break;
      payload = message.ValueOrDie().payload;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_EQ(payload, "ok");
}

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

TEST(WalTest, AppendCountsAndReplaysAfterOffset) {
  const std::string path = TestDir("wal_basic") + "/wal.csv";
  auto wal = Wal::Open(path, /*sync=*/false).ValueOrDie();
  EXPECT_EQ(wal->count(), 0u);
  ASSERT_TRUE(wal->Append("one").ok());
  ASSERT_TRUE(wal->Append("two").ok());
  ASSERT_TRUE(wal->Append("three").ok());
  EXPECT_EQ(wal->count(), 3u);

  std::vector<std::pair<uint64_t, std::string>> seen;
  ASSERT_TRUE(wal->Replay(1, [&](uint64_t ordinal, std::string_view record) {
                    seen.emplace_back(ordinal, std::string(record));
                    return Status::OK();
                  }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, std::string>{2, "two"}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, std::string>{3, "three"}));

  // Reopen finds the same count (ordinals are stable across restarts).
  wal.reset();
  auto reopened = Wal::Open(path, false).ValueOrDie();
  EXPECT_EQ(reopened->count(), 3u);
}

TEST(WalTest, TornTailIsTruncatedOnOpen) {
  const std::string path = TestDir("wal_torn") + "/wal.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "req,1,0,0\nreq,2,0,0\nreq,3,0";  // crash mid-append: no '\n'
  }
  auto wal = Wal::Open(path, false).ValueOrDie();
  EXPECT_EQ(wal->count(), 2u);
  // The torn record is gone; the next append lands cleanly at ordinal 3.
  ASSERT_TRUE(wal->Append("req,9,0,0").ok());
  std::vector<std::string> records;
  ASSERT_TRUE(wal->Replay(0, [&](uint64_t, std::string_view record) {
                    records.emplace_back(record);
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(records,
            (std::vector<std::string>{"req,1,0,0", "req,2,0,0", "req,9,0,0"}));
}

TEST(WalTest, RejectsEmbeddedNewline) {
  const std::string path = TestDir("wal_newline") + "/wal.csv";
  auto wal = Wal::Open(path, false).ValueOrDie();
  EXPECT_FALSE(wal->Append("two\nlines").ok());
  EXPECT_EQ(wal->count(), 0u);
}

// ---------------------------------------------------------------------------
// QuotaAllocator
// ---------------------------------------------------------------------------

TEST(QuotaAllocatorTest, WeightsAreReservedIdempotentlyAndReleased) {
  QuotaAllocator quota(/*budget_bytes=*/1000, /*admission_ratio=*/0.9,
                       /*default_weight=*/0.25);
  EXPECT_EQ(quota.AdmitTenant("a", 0.5, 0).ValueOrDie(), 0.5);
  EXPECT_EQ(quota.QuotaBytes(0.5), 500u);
  // Re-hello keeps the original weight: quotas are fixed at admission.
  EXPECT_EQ(quota.AdmitTenant("a", 0.9, 0).ValueOrDie(), 0.5);
  // 0.5 + 0.6 > 1: rejected, and the failed attempt reserves nothing.
  EXPECT_TRUE(quota.AdmitTenant("b", 0.6, 0).status().IsOutOfRange());
  EXPECT_EQ(quota.AdmitTenant("b", 0.5, 0).ValueOrDie(), 0.5);
  EXPECT_TRUE(quota.AdmitTenant("c", 0.1, 0).status().IsOutOfRange());
  quota.ReleaseTenant("a");
  EXPECT_EQ(quota.AdmitTenant("c", 0.1, 0).ValueOrDie(), 0.1);
  // Weight <= 0 selects the default; out-of-domain weights are invalid.
  EXPECT_EQ(quota.AdmitTenant("d", 0.0, 0).ValueOrDie(), 0.25);
  EXPECT_TRUE(quota.AdmitTenant("e", 1.5, 0).status().IsInvalidArgument());
}

TEST(QuotaAllocatorTest, ByteWatermarkGatesAdmission) {
  QuotaAllocator quota(1000, 0.9, 0.25);
  // 950 used > 900 watermark: no new tenants, no new queries.
  EXPECT_TRUE(quota.AdmitTenant("a", 0.1, 950).status().IsOutOfRange());
  EXPECT_TRUE(quota.AdmitQuery(950).IsOutOfRange());
  EXPECT_TRUE(quota.AdmitQuery(899).ok());
  // Budget 0 disables byte budgeting entirely.
  QuotaAllocator unbounded(0, 0.9, 0.25);
  EXPECT_TRUE(unbounded.AdmitQuery(1u << 30).ok());
  EXPECT_EQ(unbounded.QuotaBytes(0.5), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint namespace path safety
// ---------------------------------------------------------------------------

TEST(PathSafetyTest, SafeComponentsOnly) {
  EXPECT_TRUE(ckpt::IsSafePathComponent("alice"));
  EXPECT_TRUE(ckpt::IsSafePathComponent("Tenant_01.prod-eu"));
  EXPECT_FALSE(ckpt::IsSafePathComponent(""));
  EXPECT_FALSE(ckpt::IsSafePathComponent(".hidden"));
  EXPECT_FALSE(ckpt::IsSafePathComponent(".."));
  EXPECT_FALSE(ckpt::IsSafePathComponent("a/b"));
  EXPECT_FALSE(ckpt::IsSafePathComponent("a b"));
  EXPECT_FALSE(ckpt::IsSafePathComponent(std::string(65, 'a')));
  EXPECT_TRUE(ckpt::JoinNamespace("/root", "alice").ok());
  EXPECT_FALSE(ckpt::JoinNamespace("/root", "../alice").ok());
}

// ---------------------------------------------------------------------------
// TenantSession: exactly-once recovery at the session level
// ---------------------------------------------------------------------------

constexpr const char* kQueryText =
    "PATTERN SEQ(req a, req b) WHERE a.loc = b.loc WITHIN 5 min";

TenantSession::Config MakeConfig(const std::string& dir) {
  TenantSession::Config config;
  config.tenant = "alice";
  config.root = dir + "/alice";
  config.checkpoint_interval_events = 0;  // explicit checkpoints only
  return config;
}

Status ApplyBikeSchema(TenantSession& session) {
  CEP_RETURN_NOT_OK(
      session.ApplySchemaCommand({"req", "loc:int", "uid:int"}));
  CEP_RETURN_NOT_OK(
      session.ApplySchemaCommand({"avail", "loc:int", "bid:int"}));
  return session.ApplySchemaCommand(
      {"unlock", "loc:int", "uid:int", "bid:int"});
}

std::vector<std::string> MakeLines(int n) {
  std::vector<std::string> lines;
  for (int i = 1; i <= n; ++i) {
    lines.push_back("req," + std::to_string(i * 1000) + "," +
                    std::to_string(i % 3) + "," + std::to_string(i));
  }
  return lines;
}

TEST(TenantSessionTest, RecoverReplaysWalTailToExactEquality) {
  const std::string ref_dir = TestDir("tenant_recover_ref");
  const std::string crash_dir = TestDir("tenant_recover_crash");
  const auto lines = MakeLines(10);

  // Reference: one uninterrupted session over all 10 events.
  std::string want_stats;
  {
    auto session = TenantSession::Create(MakeConfig(ref_dir)).ValueOrDie();
    ASSERT_TRUE(ApplyBikeSchema(*session).ok());
    ASSERT_TRUE(session->AddQuery("q", "", kQueryText).ok());
    for (const auto& line : lines) ASSERT_TRUE(session->IngestLine(line).ok());
    want_stats = session->StatsText();
  }

  // Crash scenario: snapshot at 5, two more WAL-only events, "crash"
  // (destructor, no further checkpoint), recover, finish the stream.
  const auto config = MakeConfig(crash_dir);
  {
    auto session = TenantSession::Create(config).ValueOrDie();
    ASSERT_TRUE(ApplyBikeSchema(*session).ok());
    ASSERT_TRUE(session->AddQuery("q", "", kQueryText).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(session->IngestLine(lines[i]).ok());
    }
    ASSERT_TRUE(session->Checkpoint(/*synchronous=*/true).ok());
    ASSERT_TRUE(session->IngestLine(lines[5]).ok());
    ASSERT_TRUE(session->IngestLine(lines[6]).ok());
  }
  auto recovered = TenantSession::Recover(config).ValueOrDie();
  EXPECT_EQ(recovered->ingested(), 7u);
  for (int i = 7; i < 10; ++i) {
    ASSERT_TRUE(recovered->IngestLine(lines[i]).ok());
  }
  EXPECT_EQ(recovered->StatsText(), want_stats);
}

TEST(TenantSessionTest, AddQueryIsIdempotentForIdenticalDefinitions) {
  const std::string dir = TestDir("tenant_idempotent");
  auto session = TenantSession::Create(MakeConfig(dir)).ValueOrDie();
  ASSERT_TRUE(ApplyBikeSchema(*session).ok());
  ASSERT_TRUE(session->AddQuery("q", "theta=50", kQueryText).ok());
  EXPECT_TRUE(session->AddQuery("q", "theta=50", kQueryText).ok());
  EXPECT_EQ(session->num_queries(), 1u);
  EXPECT_TRUE(session->AddQuery("q", "theta=80", kQueryText)
                  .IsAlreadyExists());
}

TEST(TenantSessionTest, LateBornQueryOnlySeesPostBirthEvents) {
  const std::string dir = TestDir("tenant_birth");
  const auto lines = MakeLines(6);
  const auto config = MakeConfig(dir);
  {
    auto session = TenantSession::Create(config).ValueOrDie();
    ASSERT_TRUE(ApplyBikeSchema(*session).ok());
    ASSERT_TRUE(session->AddQuery("early", "", kQueryText).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(session->IngestLine(lines[i]).ok());
    }
    ASSERT_TRUE(session->AddQuery("late", "", kQueryText).ok());
    for (int i = 3; i < 6; ++i) {
      ASSERT_TRUE(session->IngestLine(lines[i]).ok());
    }
    EXPECT_EQ(session->FindEngine("early")->metrics().events_processed, 6u);
    EXPECT_EQ(session->FindEngine("late")->metrics().events_processed, 3u);
  }
  // Recovery has no snapshot at all: both queries replay from their birth
  // offsets — "late" must not see the three events that predate it.
  auto recovered = TenantSession::Recover(config).ValueOrDie();
  EXPECT_EQ(recovered->FindEngine("early")->metrics().events_processed, 6u);
  EXPECT_EQ(recovered->FindEngine("late")->metrics().events_processed, 3u);
}

TEST(TenantSessionTest, ParseFailuresQuarantineWithoutTouchingTheWal) {
  const std::string dir = TestDir("tenant_quarantine");
  auto session = TenantSession::Create(MakeConfig(dir)).ValueOrDie();
  ASSERT_TRUE(ApplyBikeSchema(*session).ok());
  ASSERT_TRUE(session->AddQuery("q", "", kQueryText).ok());
  EXPECT_FALSE(session->IngestLine("not,a,valid,record").ok());
  EXPECT_FALSE(session->IngestLine("req,embedded\nnewline,0,0").ok());
  EXPECT_EQ(session->quarantined(), 2u);
  EXPECT_EQ(session->ingested(), 0u);
  ASSERT_TRUE(session->IngestLine("req,1000,1,1").ok());
  EXPECT_EQ(session->ingested(), 1u);
}

TEST(TenantSessionTest, MetricsExportCarriesQualityAndDegradationLabels) {
  const std::string dir = TestDir("tenant_quality_metrics");
  auto config = MakeConfig(dir);
  config.quota_bytes = 1 << 20;  // enables the degradation ladder
  auto session = TenantSession::Create(config).ValueOrDie();
  ASSERT_TRUE(ApplyBikeSchema(*session).ok());
  ASSERT_TRUE(session->AddQuery("plain", "", kQueryText).ok());
  ASSERT_TRUE(
      session->AddQuery("watched", "shadow=1 calibration=1 slo=0.01",
                        kQueryText)
          .ok());
  for (const auto& line : MakeLines(20)) {
    ASSERT_TRUE(session->IngestLine(line).ok());
  }

  obs::Registry registry;
  session->ExportMetrics(&registry);
  const std::string prom = registry.ToPrometheusText();
  // Quality series carry the {tenant, query} labels of the engine that
  // produced them, and only quality-enabled queries emit them.
  EXPECT_NE(
      prom.find(
          "cep_shadow_spans_sampled_total{query=\"watched\",tenant=\"alice\"}"),
      std::string::npos);
  EXPECT_NE(
      prom.find("cep_slo_events_total{query=\"watched\",tenant=\"alice\"}"),
      std::string::npos);
  EXPECT_NE(prom.find("cep_calibration_outcomes_total{query=\"watched\","
                      "tenant=\"alice\"}"),
            std::string::npos);
  EXPECT_EQ(
      prom.find(
          "cep_shadow_spans_sampled_total{query=\"plain\",tenant=\"alice\"}"),
      std::string::npos);
  // The degradation ladder gauge is per query regardless of quality config.
  EXPECT_NE(
      prom.find("cep_degradation_level{query=\"plain\",tenant=\"alice\"}"),
      std::string::npos);
  EXPECT_NE(
      prom.find("cep_degradation_level{query=\"watched\",tenant=\"alice\"}"),
      std::string::npos);
  EXPECT_NE(prom.find("cep_tenant_run_bytes{tenant=\"alice\"}"),
            std::string::npos);

  // !stats surfaces the quality JSON only for quality-enabled queries.
  const std::string stats = session->StatsText();
  EXPECT_NE(stats.find("quality=watched"), std::string::npos);
  EXPECT_EQ(stats.find("quality=plain"), std::string::npos);
}

TEST(ParseKvSpecTest, RejectsDuplicatesAndMalformedTokens) {
  EXPECT_EQ(service::ParseKvSpec("a=1 b=2").ValueOrDie().size(), 2u);
  EXPECT_TRUE(service::ParseKvSpec("").ValueOrDie().empty());
  EXPECT_FALSE(service::ParseKvSpec("a=1 a=2").ok());
  EXPECT_FALSE(service::ParseKvSpec("novalue").ok());
  EXPECT_FALSE(service::ParseKvSpec("=1").ok());
}

TEST(MakeEngineOptionsFromSpecTest, EnforcesServiceInvariants) {
  const auto kv = service::ParseKvSpec("theta=80").ValueOrDie();
  const auto options =
      service::MakeEngineOptionsFromSpec(kv, /*default_theta=*/50,
                                         /*quota_bytes=*/4096)
          .ValueOrDie();
  EXPECT_EQ(options.latency_mode, LatencyMode::kVirtualCost);
  EXPECT_TRUE(options.collect_matches);
  EXPECT_EQ(options.latency_threshold_micros, 80.0);
  EXPECT_TRUE(options.degradation.enabled);
  EXPECT_EQ(options.degradation.run_bytes_budget, 4096u);
  // Tenant default θ applies when the spec names none.
  const auto defaulted =
      service::MakeEngineOptionsFromSpec(service::ParseKvSpec("").ValueOrDie(),
                                         50, 0)
          .ValueOrDie();
  EXPECT_EQ(defaulted.latency_threshold_micros, 50.0);
  EXPECT_FALSE(defaulted.degradation.enabled);
  EXPECT_FALSE(
      service::MakeEngineOptionsFromSpec(
          service::ParseKvSpec("selection=7").ValueOrDie(), 0, 0)
          .ok());
}

TEST(MakeEngineOptionsFromSpecTest, IgnoresRetiredParallelKeys) {
  // Tenant meta files persisted with the retired intra-engine parallelism
  // keys must still recover, into exactly the options they build without.
  auto build = [](const char* spec) {
    return service::MakeEngineOptionsFromSpec(
               service::ParseKvSpec(spec).ValueOrDie(), 50, 4096)
        .ValueOrDie();
  };
  const EngineOptions plain = build("theta=80 maxruns=64 arena=16 batch=8");
  const EngineOptions retired = build(
      "theta=80 maxruns=64 arena=16 batch=8 threads=3 shards=2 "
      "minparallel=4");
  EXPECT_EQ(opt::FingerprintEngineOptions(retired),
            opt::FingerprintEngineOptions(plain));
  EXPECT_EQ(retired.arena_block_runs, plain.arena_block_runs);
  EXPECT_EQ(retired.batch_size, plain.batch_size);
  EXPECT_EQ(retired.checkpoint.directory, plain.checkpoint.directory);
}

}  // namespace
}  // namespace cep
