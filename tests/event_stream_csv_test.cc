#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "event/csv.h"
#include "event/stream.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

TEST(VectorEventStreamTest, IteratesInOrderAndResets) {
  BikeSchema fixture;
  std::vector<EventPtr> events = {fixture.Req(1, 0, 1), fixture.Req(2, 0, 2)};
  VectorEventStream stream(events);
  EXPECT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream.Next()->timestamp(), 1);
  EXPECT_EQ(stream.Next()->timestamp(), 2);
  EXPECT_EQ(stream.Next(), nullptr);
  EXPECT_EQ(stream.Next(), nullptr);
  stream.Reset();
  EXPECT_EQ(stream.Next()->timestamp(), 1);
}

TEST(EventStreamTest, DrainCollectsRemainder) {
  BikeSchema fixture;
  VectorEventStream stream(
      {fixture.Req(1, 0, 1), fixture.Req(2, 0, 2), fixture.Req(3, 0, 3)});
  stream.Next();
  const auto rest = stream.Drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->timestamp(), 2);
}

TEST(CallbackEventStreamTest, GeneratesUntilNull) {
  BikeSchema fixture;
  int count = 0;
  CallbackEventStream stream([&]() -> EventPtr {
    if (count >= 3) return nullptr;
    ++count;
    return fixture.Req(count, 0, count);
  });
  EXPECT_EQ(stream.Drain().size(), 3u);
}

TEST(MergedEventStreamTest, MergesByTimestamp) {
  BikeSchema fixture;
  std::vector<std::unique_ptr<EventStream>> inputs;
  inputs.push_back(std::make_unique<VectorEventStream>(
      std::vector<EventPtr>{fixture.Req(1, 0, 1), fixture.Req(5, 0, 2)}));
  inputs.push_back(std::make_unique<VectorEventStream>(
      std::vector<EventPtr>{fixture.Req(2, 0, 3), fixture.Req(4, 0, 4)}));
  MergedEventStream merged(std::move(inputs));
  std::vector<Timestamp> order;
  while (EventPtr e = merged.Next()) order.push_back(e->timestamp());
  EXPECT_EQ(order, (std::vector<Timestamp>{1, 2, 4, 5}));
}

TEST(MergedEventStreamTest, EmptyInputs) {
  MergedEventStream merged({});
  EXPECT_EQ(merged.Next(), nullptr);
}

TEST(SortEventsTest, SortsByTimestampThenSequence) {
  BikeSchema fixture;
  std::vector<EventPtr> events = {fixture.Req(5, 0, 1, /*seq=*/30),
                                  fixture.Req(1, 0, 2, /*seq=*/20),
                                  fixture.Req(5, 0, 3, /*seq=*/10)};
  SortEvents(&events);
  EXPECT_EQ(events[0]->timestamp(), 1);
  EXPECT_EQ(events[1]->sequence(), 10u);
  EXPECT_EQ(events[2]->sequence(), 30u);
}

TEST(CsvTest, SplitsSimpleRecord) {
  const auto fields = SplitCsvRecord("a,b,c").ValueOrDie();
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, SplitsQuotedFields) {
  const auto fields = SplitCsvRecord(R"(plain,"with,comma","with""quote")")
                          .ValueOrDie();
  EXPECT_EQ(fields, (std::vector<std::string>{"plain", "with,comma",
                                              "with\"quote"}));
}

TEST(CsvTest, RejectsMalformedQuotes) {
  EXPECT_TRUE(SplitCsvRecord("\"unterminated").status().IsParseError());
  EXPECT_TRUE(SplitCsvRecord("a\"b").status().IsParseError());
}

TEST(CsvTest, EventRoundTrip) {
  BikeSchema fixture;
  const EventPtr original = fixture.Unlock(123, -4, 9, 77);
  const std::string line = EventToCsvLine(*original);
  const EventPtr parsed =
      EventFromCsvLine(fixture.registry, line, 5).ValueOrDie();
  EXPECT_EQ(parsed->timestamp(), 123);
  EXPECT_EQ(parsed->attribute("loc"), Value(-4));
  EXPECT_EQ(parsed->attribute("uid"), Value(9));
  EXPECT_EQ(parsed->attribute("bid"), Value(77));
  EXPECT_EQ(parsed->sequence(), 5u);
}

TEST(CsvTest, NullValuesSerialiseAsEmptyFields) {
  SchemaRegistry registry;
  const auto id =
      registry.Register("n", {{"x", ValueType::kInt}}).ValueOrDie();
  const auto e = std::make_shared<Event>(
      id, registry.schema(id), 10, std::vector<Value>{Value::Null()}, 0);
  const std::string line = EventToCsvLine(*e);
  EXPECT_EQ(line, "n,10,");
  const EventPtr parsed = EventFromCsvLine(registry, line, 0).ValueOrDie();
  EXPECT_TRUE(parsed->attribute("x").is_null());
}

TEST(CsvTest, StreamRoundTripPreservesAll) {
  BikeSchema fixture;
  Rng rng(4);
  std::vector<EventPtr> events;
  for (int i = 0; i < 200; ++i) {
    events.push_back(fixture.Req(i, static_cast<int64_t>(rng.NextBounded(50)),
                                 static_cast<int64_t>(rng.NextBounded(1000))));
  }
  std::stringstream buffer;
  CEP_ASSERT_OK(WriteEventsCsv(buffer, events));
  const auto parsed = ReadEventsCsv(fixture.registry, buffer).ValueOrDie();
  ASSERT_EQ(parsed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i]->timestamp(), events[i]->timestamp());
    EXPECT_EQ(parsed[i]->attribute("loc"), events[i]->attribute("loc"));
    EXPECT_EQ(parsed[i]->attribute("uid"), events[i]->attribute("uid"));
  }
}

TEST(CsvTest, ReadReportsLineNumberOnError) {
  BikeSchema fixture;
  std::stringstream buffer("req,1,2,3\nreq,not_a_ts,2,3\n");
  const auto status = ReadEventsCsv(fixture.registry, buffer).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST(CsvTest, RejectsUnknownTypeAndWrongArity) {
  BikeSchema fixture;
  EXPECT_TRUE(EventFromCsvLine(fixture.registry, "nope,1", 0)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(EventFromCsvLine(fixture.registry, "req,1,2", 0)
                  .status()
                  .IsParseError());  // req needs 2 attribute fields
  EXPECT_TRUE(EventFromCsvLine(fixture.registry, "req,1,2,3,4", 0)
                  .status()
                  .IsParseError());
}

TEST(CsvTest, SkipsBlankLinesAndCr) {
  BikeSchema fixture;
  std::stringstream buffer("req,1,2,3\r\n\n  \nreq,2,4,5\n");
  const auto events = ReadEventsCsv(fixture.registry, buffer).ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1]->sequence(), 1u);
}

TEST(CsvTest, FileRoundTrip) {
  BikeSchema fixture;
  const std::string path = ::testing::TempDir() + "/cepshed_csv_test.csv";
  std::vector<EventPtr> events = {fixture.Req(1, 2, 3), fixture.Req(4, 5, 6)};
  CEP_ASSERT_OK(WriteEventsCsvFile(path, events));
  const auto parsed = ReadEventsCsvFile(fixture.registry, path).ValueOrDie();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1]->attribute("loc"), Value(5));
}

TEST(CsvTest, MissingFileIsIoError) {
  BikeSchema fixture;
  EXPECT_TRUE(ReadEventsCsvFile(fixture.registry, "/nonexistent/nope.csv")
                  .status()
                  .IsIoError());
}

// Registers msg(txt: string, n: int) for the pathological-value tests.
EventTypeId RegisterMsg(SchemaRegistry* registry) {
  return registry
      ->Register("msg",
                 {{"txt", ValueType::kString}, {"n", ValueType::kInt}})
      .ValueOrDie();
}

EventPtr MakeMsg(const SchemaRegistry& registry, EventTypeId id, Timestamp ts,
                 Value txt, Value n, uint64_t seq) {
  return std::make_shared<Event>(id, registry.schema(id), ts,
                                 std::vector<Value>{std::move(txt),
                                                    std::move(n)},
                                 seq);
}

TEST(CsvTest, PathologicalValuesRoundTrip) {
  SchemaRegistry registry;
  const EventTypeId id = RegisterMsg(&registry);
  const std::vector<EventPtr> events = {
      MakeMsg(registry, id, 1, Value(std::string("plain")), Value(int64_t{7}),
              0),
      MakeMsg(registry, id, 2, Value(std::string("a,b,,c")), Value::Null(), 1),
      MakeMsg(registry, id, 3, Value(std::string("say \"hi\" twice \"\"")),
              Value(int64_t{-9}), 2),
      MakeMsg(registry, id, 4, Value(std::string("line1\nline2\n,\"mix\"")),
              Value(int64_t{0}), 3),
      MakeMsg(registry, id, 5, Value::Null(), Value(int64_t{1}), 4),
  };
  std::stringstream buffer;
  CEP_ASSERT_OK(WriteEventsCsv(buffer, events));
  // The embedded newline makes the serialized form span more physical lines
  // than there are events; the reader must stitch quoted records back up.
  const auto parsed = ReadEventsCsv(registry, buffer).ValueOrDie();
  ASSERT_EQ(parsed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i]->timestamp(), events[i]->timestamp()) << "event " << i;
    EXPECT_EQ(parsed[i]->attribute("txt"), events[i]->attribute("txt"))
        << "event " << i;
    EXPECT_EQ(parsed[i]->attribute("n"), events[i]->attribute("n"))
        << "event " << i;
  }
}

TEST(CsvTest, UnterminatedQuoteAtEofIsParseError) {
  SchemaRegistry registry;
  RegisterMsg(&registry);
  std::stringstream in("msg,1,\"never closed\nmore text");
  EXPECT_TRUE(ReadEventsCsv(registry, in).status().IsParseError());
}

TEST(CsvTest, QuarantineSkipsBadRecordsWhenBudgetEnabled) {
  BikeSchema fixture;
  std::stringstream in(
      "req,1,10,20\n"
      "utter garbage\n"
      "req,2,11,21\n"
      "req,notatimestamp,0,0\n"
      "req,3,12,22\n");
  // Default is fail-fast: the first bad line is fatal and names its line.
  {
    std::stringstream copy(in.str());
    const auto result = ReadEventsCsv(fixture.registry, copy);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("line 2"), std::string::npos)
        << result.status().ToString();
  }
  // With an error budget the bad lines are quarantined and counted.
  CsvReadOptions options;
  options.max_consecutive_errors = 4;
  CsvReadStats stats;
  const auto events =
      ReadEventsCsv(fixture.registry, in, options, &stats).ValueOrDie();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_NE(stats.last_error.find("line 4"), std::string::npos)
      << stats.last_error;
  // Sequence numbers of surviving events stay dense.
  EXPECT_EQ(events[0]->sequence(), 0u);
  EXPECT_EQ(events[1]->sequence(), 1u);
  EXPECT_EQ(events[2]->sequence(), 2u);
}

TEST(CsvTest, OversizedRecordIsQuarantinedWithBoundedMemory) {
  BikeSchema fixture;
  // An attacker-sized line (no newline for megabytes) must not be buffered
  // whole: the reader discards past max_record_bytes and quarantines the
  // record under its own reason code.
  std::stringstream in;
  in << "req,1,10,20\n";
  in << "req,2," << std::string(4096, '9') << ",0\n";
  in << "req,3,11,21\n";
  CsvReadOptions options;
  options.max_record_bytes = 256;
  options.max_consecutive_errors = 4;
  CsvReadStats stats;
  const auto events =
      ReadEventsCsv(fixture.registry, in, options, &stats).ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_NE(stats.last_error.find("max_record_bytes"), std::string::npos)
      << stats.last_error;
  EXPECT_NE(stats.last_error.find("line 2"), std::string::npos)
      << stats.last_error;
  // The stream resynchronises on the next newline: event timestamps 1, 3.
  EXPECT_EQ(events[1]->timestamp(), 3);
}

TEST(CsvTest, OversizedRecordFailsFastInStrictMode) {
  BikeSchema fixture;
  std::stringstream in;
  in << "req,1,10,20\n" << std::string(1024, 'x') << "\nreq,2,11,21\n";
  CsvReadOptions options;
  options.max_record_bytes = 64;
  CsvReadStats stats;
  const auto result = ReadEventsCsv(fixture.registry, in, options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange()) << result.status().ToString();
  EXPECT_EQ(stats.oversized, 1u);
}

TEST(CsvTest, OversizedQuotedContinuationIsBounded) {
  BikeSchema fixture;
  // A quoted field swallowing newlines must count the total stitched record
  // size against the bound, not each physical line separately — otherwise
  // an unterminated quote grows the buffer without limit.
  std::stringstream in;
  in << "req,1,10,20\n" << "req,2,\"";
  for (int i = 0; i < 64; ++i) in << std::string(32, 'a') << "\n";
  in << "\",0\nreq,3,11,21\n";
  CsvReadOptions options;
  options.max_record_bytes = 128;
  // The resynchronisation point is the next physical newline, so the
  // remaining continuation lines surface as ordinary quarantined records.
  options.max_consecutive_errors = 128;
  CsvReadStats stats;
  const auto events =
      ReadEventsCsv(fixture.registry, in, options, &stats).ValueOrDie();
  EXPECT_GE(stats.oversized, 1u);
  EXPECT_GE(events.size(), 1u);
  EXPECT_EQ(events.front()->timestamp(), 1);
}

TEST(CsvTest, ZeroMaxRecordBytesDisablesTheBound) {
  BikeSchema fixture;
  std::stringstream in;
  in << "req,1," << std::string(1 << 16, '0') << "7,20\n";
  CsvReadOptions options;
  options.max_record_bytes = 0;
  CsvReadStats stats;
  const auto events =
      ReadEventsCsv(fixture.registry, in, options, &stats).ValueOrDie();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.oversized, 0u);
}

TEST(CsvTest, QuarantineBudgetExhaustsOnConsecutiveBadRecords) {
  BikeSchema fixture;
  std::stringstream in(
      "req,1,10,20\n"
      "bad one\n"
      "bad two\n"
      "bad three\n"
      "req,2,11,21\n");
  CsvReadOptions options;
  options.max_consecutive_errors = 3;
  CsvReadStats stats;
  const auto result = ReadEventsCsv(fixture.registry, in, options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("error budget exhausted"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(stats.quarantined, 3u);
}

}  // namespace
}  // namespace cep
