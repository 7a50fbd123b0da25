// Tests for the observability layer (src/obs/): metrics registry, shed
// audit log, and span tracer — plus the engine-level integration contract
// that every export (Prometheus text, metrics JSON, Chrome trace, audit
// JSONL) is byte-identical across thread counts for a fixed input.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/multi.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shedding/state_shedder.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

// --- instruments ------------------------------------------------------------

TEST(ObsMetricsTest, CounterAndGauge) {
  obs::Counter counter;
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Set(7);
  EXPECT_EQ(counter.value(), 7u);

  obs::Gauge gauge;
  gauge.Set(2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(ObsMetricsTest, FormatMetricValue) {
  EXPECT_EQ(obs::FormatMetricValue(0.0), "0");
  EXPECT_EQ(obs::FormatMetricValue(3.0), "3");
  EXPECT_EQ(obs::FormatMetricValue(-17.0), "-17");
  EXPECT_EQ(obs::FormatMetricValue(2.5), "2.5");
  // Deterministic: equal inputs always format identically.
  EXPECT_EQ(obs::FormatMetricValue(0.1), obs::FormatMetricValue(0.1));
}

TEST(ObsMetricsTest, HistogramBucketBoundaries) {
  obs::HistogramSpec spec;
  spec.base = 1.0;
  spec.growth = 2.0;
  spec.num_buckets = 4;  // bounds 1, 2, 4, 8
  obs::Histogram hist(spec);
  ASSERT_EQ(hist.num_buckets(), 4u);
  EXPECT_DOUBLE_EQ(hist.upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.upper_bound(3), 8.0);

  hist.Record(0.0);  // below base -> bucket 0
  hist.Record(1.0);  // exactly on a bound -> that bucket (le semantics)
  hist.Record(1.5);
  hist.Record(8.0);
  hist.Record(100.0);  // above the last bound -> +Inf overflow bucket
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 0u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.bucket_count(4), 1u);  // +Inf
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 110.5);
}

TEST(ObsMetricsTest, HistogramMergeCopyReset) {
  obs::HistogramSpec spec;
  spec.num_buckets = 4;
  obs::Histogram a(spec);
  obs::Histogram b(spec);
  a.Record(1.0);
  a.Record(100.0);
  b.Record(3.0);

  b.MergeFrom(a);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_DOUBLE_EQ(b.sum(), 104.0);
  EXPECT_EQ(b.bucket_count(0), 1u);
  EXPECT_EQ(b.bucket_count(2), 1u);
  EXPECT_EQ(b.bucket_count(4), 1u);

  obs::Histogram c(spec);
  c.Record(999.0);
  c.CopyFrom(a);  // overwrite, not add
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.sum(), 101.0);

  c.Reset();
  EXPECT_EQ(c.count(), 0u);
  EXPECT_DOUBLE_EQ(c.sum(), 0.0);
  for (size_t i = 0; i <= c.num_buckets(); ++i) {
    EXPECT_EQ(c.bucket_count(i), 0u) << i;
  }
}

// --- registry ---------------------------------------------------------------

TEST(ObsRegistryTest, SameIdentityReturnsSameInstrument) {
  obs::Registry registry;
  obs::Counter* a = registry.GetCounter("cep_x_total", "help");
  obs::Counter* b = registry.GetCounter("cep_x_total", "help");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);

  // Label order is canonicalised: the same label *set* is the same metric.
  obs::Counter* c = registry.GetCounter("cep_x_total", "help",
                                        {{"b", "2"}, {"a", "1"}});
  obs::Counter* d = registry.GetCounter("cep_x_total", "help",
                                        {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(c, d);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);

  obs::Gauge* g = registry.GetGauge("cep_depth", "help");
  EXPECT_EQ(registry.GetGauge("cep_depth", "help"), g);
  obs::Histogram* h = registry.GetHistogram("cep_lat_us", "help");
  EXPECT_EQ(registry.GetHistogram("cep_lat_us", "help"), h);
}

TEST(ObsRegistryTest, ExportsAreDeterministicAndOrdered) {
  obs::Registry registry;
  // Register out of name order; exports must still be sorted and stable.
  registry.GetCounter("cep_zeta_total", "last metric")->Set(3);
  registry.GetGauge("cep_alpha", "first metric")->Set(1.5);
  registry.GetCounter("cep_mid_total", "labelled", {{"query", "q1"}})->Set(2);

  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# HELP cep_alpha first metric"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cep_alpha gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cep_zeta_total counter"), std::string::npos);
  EXPECT_NE(prom.find("cep_mid_total{query=\"q1\"} 2"), std::string::npos);
  EXPECT_LT(prom.find("cep_alpha"), prom.find("cep_mid_total"));
  EXPECT_LT(prom.find("cep_mid_total"), prom.find("cep_zeta_total"));
  // Byte-stable across repeated export.
  EXPECT_EQ(prom, registry.ToPrometheusText());

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cep_alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"query\":\"q1\""), std::string::npos);
  EXPECT_EQ(json, registry.ToJson());
}

TEST(ObsRegistryTest, HistogramExportsCumulativeBuckets) {
  obs::Registry registry;
  obs::HistogramSpec spec;
  spec.num_buckets = 2;  // bounds 1, 2 (+Inf)
  obs::Histogram* h = registry.GetHistogram("cep_h_us", "hist", spec);
  h->Record(1.0);
  h->Record(1.5);
  h->Record(50.0);

  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE cep_h_us histogram"), std::string::npos);
  EXPECT_NE(prom.find("cep_h_us_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("cep_h_us_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("cep_h_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("cep_h_us_count 3"), std::string::npos);
  EXPECT_NE(prom.find("cep_h_us_sum 52.5"), std::string::npos);
}

// --- shed audit log ---------------------------------------------------------

obs::ShedDecisionRecord MakeRecord(uint64_t run_id) {
  obs::ShedDecisionRecord record;
  record.run_id = run_id;
  record.nfa_state = 2;
  record.shed_ts = 1000 + static_cast<Timestamp>(run_id);
  record.c_plus = 0.25;
  record.c_minus = 2.0;
  record.score = 0.125;
  record.shed_fraction = 0.5;
  return record;
}

TEST(ObsAuditTest, SequenceStampingAndRingOverwrite) {
  obs::ShedAuditLog log(/*capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(log.Append(MakeRecord(i)), i);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.total_appended(), 6u);

  // Oldest two were overwritten; the snapshot is oldest-first.
  const std::vector<obs::ShedDecisionRecord> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].sequence, i + 2);
    EXPECT_EQ(snapshot[i].run_id, i + 2);
  }

  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_appended(), 0u);
}

TEST(ObsAuditTest, JsonlShape) {
  obs::ShedAuditLog log;
  log.Append(MakeRecord(7));
  const std::string jsonl = log.ToJsonl();
  // One line, fixed field order, trailing newline.
  EXPECT_EQ(jsonl,
            "{\"seq\":0,\"engine\":0,\"episode\":0,\"run_id\":7,\"state\":2,"
            "\"shed_ts\":1007,\"run_start_ts\":0,\"time_slice\":-1,"
            "\"c_plus\":0.25,\"c_minus\":2,\"score\":0.125,"
            "\"shed_fraction\":0.5,\"degradation_level\":0}\n");
}

// --- tracer -----------------------------------------------------------------

TEST(ObsTraceTest, SpansSortAndExport) {
  obs::Tracer tracer;
  tracer.Span("event", /*ts=*/20, /*dur=*/5, /*tid=*/0, "ops", 3);
  tracer.Span("merge", /*ts=*/10, /*dur=*/2, /*tid=*/2);
  tracer.Instant("ladder_up", /*ts=*/15, /*tid=*/0, "level", 1);
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::vector<obs::TraceSpan> spans = tracer.SortedSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].ts_us, 10u);
  EXPECT_EQ(spans[1].ts_us, 15u);
  EXPECT_EQ(spans[2].ts_us, 20u);

  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(
      json.find("{\"name\":\"merge\",\"ph\":\"X\",\"pid\":0,\"tid\":2,"
                "\"ts\":10,\"dur\":2}"),
      std::string::npos);
  // Instant events carry scope "t" and no duration.
  EXPECT_NE(
      json.find("{\"name\":\"ladder_up\",\"ph\":\"i\",\"pid\":0,\"tid\":0,"
                "\"ts\":15,\"s\":\"t\",\"args\":{\"level\":1}}"),
      std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"ops\":3}"), std::string::npos);
}

TEST(ObsTraceTest, RingKeepsNewestSpans) {
  obs::Tracer tracer(/*capacity_per_thread=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    tracer.Span("event", /*ts=*/i, /*dur=*/1, /*tid=*/0);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<obs::TraceSpan> spans = tracer.SortedSpans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().ts_us, 2u);
  EXPECT_EQ(spans.back().ts_us, 5u);
}

TEST(ObsTraceTest, ThreadsRecordIntoIndependentBuffers) {
  obs::Tracer tracer;
  auto record = [&tracer](uint64_t base) {
    for (uint64_t i = 0; i < 100; ++i) {
      tracer.Span("event", base + i, /*dur=*/1,
                  static_cast<uint32_t>(base / 1000));
    }
  };
  std::thread t1(record, 1000);
  std::thread t2(record, 2000);
  t1.join();
  t2.join();
  EXPECT_EQ(tracer.size(), 200u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::vector<obs::TraceSpan> spans = tracer.SortedSpans();
  ASSERT_EQ(spans.size(), 200u);
  // Globally sorted regardless of which thread's buffer held what.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].ts_us, spans[i].ts_us);
  }
}

// --- engine integration -----------------------------------------------------

/// Same workload shape as parallel_test.cc: a skip-till-any Kleene query
/// whose run set doubles per matching avail, capped by max_runs, so shedding
/// fires on (almost) every cooldown boundary.
std::vector<EventPtr> StateGrowthEvents(BikeSchema* fixture, int n) {
  std::vector<EventPtr> events;
  events.reserve(static_cast<size_t>(n));
  Timestamp ts = kMinute;
  for (int i = 0; i < n; ++i) {
    ts += kSecond;
    switch (i % 7) {
      case 0:
        events.push_back(fixture->Req(ts, i % 5, 1000 + i % 11));
        break;
      case 6:
        events.push_back(fixture->Unlock(ts, i % 5, 1000 + i % 11, i % 3));
        break;
      default:
        events.push_back(fixture->Avail(ts, i % 5, i % 13));
        break;
    }
  }
  return events;
}

EngineOptions ObsWorkloadOptions() {
  EngineOptions options;
  options.latency_mode = LatencyMode::kVirtualCost;
  options.latency_threshold_micros = 40.0;
  options.latency_window_events = 32;
  options.shed_cooldown_events = 32;
  options.max_runs = 1024;
  return options;
}

struct ObsExports {
  std::string prom;
  std::string json;
  std::string trace;
  std::string audit;
  uint64_t events_processed = 0;
  uint64_t runs_shed = 0;
  uint64_t shed_triggers = 0;
  uint64_t event_busy_count = 0;
  uint64_t shed_episode_count = 0;
  uint64_t audit_appended = 0;
};

/// Runs a Kleene SBLS query (query 0) beside a shedder-free sibling on a
/// `threads`-wide MultiEngine fan-out with one shared tracer and audit log.
/// Only query 0 sheds, so the audit log has one writer and a fixed order;
/// the counters describe query 0.
ObsExports RunObsWorkload(const std::vector<EventPtr>& events,
                          size_t threads) {
  BikeSchema fixture;  // schemas are only used at compile time here
  StateShedderOptions shed_options;
  shed_options.time_slices = 4;
  MultiEngine multi;
  multi.AddQuery(fixture.Compile("PATTERN SEQ(req a, avail+ b[], unlock c) "
                                 "WHERE a.loc = b[i].loc, c.uid = a.uid "
                                 "WITHIN 30 min"),
                 ObsWorkloadOptions(),
                 std::make_unique<StateShedder>(shed_options,
                                                &fixture.registry));
  multi.AddQuery(fixture.Compile("PATTERN SEQ(req a, unlock c) "
                                 "WHERE c.uid = a.uid WITHIN 30 min"),
                 ObsWorkloadOptions());
  multi.EnableParallel(threads);

  obs::ShedAuditLog audit;
  obs::Tracer tracer;
  multi.AttachAuditLog(&audit);
  multi.AttachTracer(&tracer);
  EXPECT_TRUE(multi
                  .ProcessBatch(std::span<const EventPtr>(events.data(),
                                                          events.size()))
                  .ok());

  obs::Registry registry;
  multi.ExportMetrics(&registry);
  const Engine& engine = multi.engine(0);
  ObsExports out;
  out.prom = registry.ToPrometheusText();
  out.json = registry.ToJson();
  out.trace = tracer.ToJson();
  out.audit = audit.ToJsonl();
  out.events_processed = engine.metrics().events_processed;
  out.runs_shed = engine.metrics().runs_shed;
  out.shed_triggers = engine.metrics().shed_triggers;
  out.event_busy_count = engine.event_busy_histogram().count();
  out.shed_episode_count = engine.shed_episode_histogram().count();
  out.audit_appended = audit.total_appended();
  return out;
}

TEST(ObsEngineTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 900);
  const ObsExports serial = RunObsWorkload(events, /*threads=*/1);
  ASSERT_GT(serial.runs_shed, 0u) << "workload must trigger shedding";
  ASSERT_FALSE(serial.audit.empty());
  ASSERT_NE(serial.trace.find("\"name\":\"event\""), std::string::npos);

  for (const size_t threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ObsExports other = RunObsWorkload(events, threads);
    // Every observability surface is byte-for-byte equal whether the
    // engines run one after another or concurrently on the pool.
    EXPECT_EQ(serial.prom, other.prom);
    EXPECT_EQ(serial.json, other.json);
    EXPECT_EQ(serial.trace, other.trace);
    EXPECT_EQ(serial.audit, other.audit);
  }
}

TEST(ObsEngineTest, HistogramsAndAuditTrackEngineCounters) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 600);
  const ObsExports run = RunObsWorkload(events, /*threads=*/1);

  EXPECT_EQ(run.events_processed, 600u);
  // One busy-latency sample per processed event, one episode-duration
  // sample per shed trigger, one audit record per shed run.
  EXPECT_EQ(run.event_busy_count, run.events_processed);
  EXPECT_EQ(run.shed_episode_count, run.shed_triggers);
  EXPECT_EQ(run.audit_appended, run.runs_shed);
  EXPECT_GT(run.shed_triggers, 0u);

  // The trace covers every instrumented phase of this workload.
  EXPECT_NE(run.trace.find("\"name\":\"ingest_batch\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"name\":\"event\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"name\":\"eval\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"name\":\"merge\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"name\":\"shed_episode\""), std::string::npos);

  // The metrics exports carry the engine counter families and the three
  // latency histograms.
  for (const char* family :
       {"cep_events_processed_total", "cep_runs_shed_total",
        "cep_event_busy_us_bucket", "cep_merge_us_count",
        "cep_shed_episode_us_sum"}) {
    EXPECT_NE(run.prom.find(family), std::string::npos) << family;
  }
  // Audit records carry the SBLS model scores (C-, and so score, are
  // strictly positive whenever the cost model has seen any events).
  EXPECT_NE(run.audit.find("\"c_plus\":"), std::string::npos);
  EXPECT_NE(run.audit.find("\"time_slice\":"), std::string::npos);
}

TEST(ObsEngineTest, ShedCallbackSeesEveryVictim) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 600);
  NfaPtr nfa = fixture.Compile(
      "PATTERN SEQ(req a, avail+ b[], unlock c) "
      "WHERE a.loc = b[i].loc, c.uid = a.uid WITHIN 30 min");
  StateShedderOptions shed_options;
  shed_options.time_slices = 4;
  auto shedder =
      std::make_unique<StateShedder>(shed_options, &fixture.registry);
  Engine engine(nfa, ObsWorkloadOptions(), std::move(shedder));

  uint64_t callbacks = 0;
  bool ids_consistent = true;
  engine.SetShedCallback(
      [&](const cep::Run& run, const obs::ShedDecisionRecord& record) {
        ++callbacks;
        if (run.id() != record.run_id) ids_consistent = false;
        if (record.shed_fraction <= 0.0 || record.shed_fraction > 1.0) {
          ids_consistent = false;
        }
      });
  CEP_ASSERT_OK(engine.ProcessBatch(
      std::span<const EventPtr>(events.data(), events.size())));
  EXPECT_GT(callbacks, 0u);
  EXPECT_EQ(callbacks, engine.metrics().runs_shed);
  EXPECT_TRUE(ids_consistent);
}

TEST(ObsMultiEngineTest, LabelledAndAggregateExport) {
  BikeSchema fixture;
  const char* query =
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 30 min";
  MultiEngine multi;
  EngineOptions options;
  multi.AddQuery(fixture.Compile(query), options, nullptr, "alpha");
  multi.AddQuery(fixture.Compile(query), options, nullptr, "beta");

  obs::ShedAuditLog audit;
  multi.AttachAuditLog(&audit);

  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 140);
  CEP_ASSERT_OK(multi.ProcessBatch(
      std::span<const EventPtr>(events.data(), events.size())));
  EXPECT_EQ(multi.engine(0).metrics().events_processed, 140u);

  obs::Registry registry;
  multi.ExportMetrics(&registry);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("cep_events_processed_total{query=\"alpha\"} 140"),
            std::string::npos);
  EXPECT_NE(prom.find("cep_events_processed_total{query=\"beta\"} 140"),
            std::string::npos);
  // The unlabelled aggregate keeps events_processed assign-last semantics:
  // 140 shared input events, not 280.
  EXPECT_NE(prom.find("\ncep_events_processed_total 140\n"),
            std::string::npos);
}

}  // namespace
}  // namespace cep
