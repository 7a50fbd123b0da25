// Round-trip property tests for the snapshot value and binding codecs:
// serialize -> restore -> re-serialize must be byte-identical for every
// representable value, including the encodings equality can't check (NaN
// payloads, signed zeros).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/event_codec.h"
#include "ckpt/io.h"
#include "common/rng.h"
#include "engine/run.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Serializes `value`, reads it back, serializes the read-back copy, and
/// checks the two byte strings match. Byte equality is stricter than
/// operator== (NaN != NaN, -0.0 == 0.0) and is exactly the property the
/// replay-determinism tests depend on.
void ExpectValueRoundTrips(const Value& value) {
  ckpt::Sink first;
  first.WriteValue(value);
  ckpt::Source source(first.bytes());
  Result<Value> restored = source.ReadValue();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(source.AtEnd());
  ckpt::Sink second;
  second.WriteValue(restored.ValueOrDie());
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(ValueCodecTest, ScalarEdgeCases) {
  ExpectValueRoundTrips(Value::Null());
  ExpectValueRoundTrips(Value(true));
  ExpectValueRoundTrips(Value(false));
  ExpectValueRoundTrips(Value(int64_t{0}));
  ExpectValueRoundTrips(Value(std::numeric_limits<int64_t>::min()));
  ExpectValueRoundTrips(Value(std::numeric_limits<int64_t>::max()));
}

TEST(ValueCodecTest, DoubleEdgeCases) {
  ExpectValueRoundTrips(Value(0.0));
  ExpectValueRoundTrips(Value(-0.0));
  ExpectValueRoundTrips(Value(std::numeric_limits<double>::infinity()));
  ExpectValueRoundTrips(Value(-std::numeric_limits<double>::infinity()));
  ExpectValueRoundTrips(Value(std::numeric_limits<double>::quiet_NaN()));
  // NaN with a non-default payload: the bit pattern must survive.
  ExpectValueRoundTrips(Value(DoubleFromBits(0x7ff800000000beefULL)));
  ExpectValueRoundTrips(Value(std::numeric_limits<double>::denorm_min()));
  ExpectValueRoundTrips(Value(std::numeric_limits<double>::max()));
}

TEST(ValueCodecTest, StringEdgeCases) {
  ExpectValueRoundTrips(Value(std::string()));
  ExpectValueRoundTrips(Value(std::string("plain")));
  ExpectValueRoundTrips(Value(std::string("embedded\0nul", 12)));
  ExpectValueRoundTrips(Value(std::string(3, '\0')));
  ExpectValueRoundTrips(Value(std::string(1 << 16, 'x')));
  std::string all_bytes;
  for (int i = 0; i < 256; ++i) all_bytes.push_back(static_cast<char>(i));
  ExpectValueRoundTrips(Value(all_bytes));
}

TEST(ValueCodecTest, MaxWidthHashesRoundTrip) {
  // Attribute hashes travel as raw u64s; the extremes must survive.
  for (const uint64_t hash :
       {uint64_t{0}, uint64_t{1}, std::numeric_limits<uint64_t>::max(),
        std::numeric_limits<uint64_t>::max() - 1, uint64_t{0x8000000000000000ULL}}) {
    ckpt::Sink sink;
    sink.WriteU64(hash);
    ckpt::Source source(sink.bytes());
    Result<uint64_t> restored = source.ReadU64();
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.ValueOrDie(), hash);
  }
}

TEST(ValueCodecTest, RandomizedValuesRoundTrip) {
  Rng rng(0xC0DEC);
  for (int i = 0; i < 2000; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:
        ExpectValueRoundTrips(Value(static_cast<int64_t>(rng.Next())));
        break;
      case 1:
        // Arbitrary bit patterns, including NaNs, infinities, denormals.
        ExpectValueRoundTrips(Value(DoubleFromBits(rng.Next())));
        break;
      case 2: {
        std::string s(rng.NextBounded(64), '\0');
        for (char& c : s) c = static_cast<char>(rng.NextBounded(256));
        ExpectValueRoundTrips(Value(std::move(s)));
        break;
      }
      default:
        ExpectValueRoundTrips(Value(rng.NextBounded(2) == 1));
        break;
    }
  }
}

TEST(ValueCodecTest, TruncatedValueIsOutOfRange) {
  ckpt::Sink sink;
  sink.WriteValue(Value(std::string("hello")));
  const std::string bytes(sink.bytes());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ckpt::Source source(std::string_view(bytes).substr(0, cut));
    const Result<Value> restored = source.ReadValue();
    EXPECT_FALSE(restored.ok()) << "cut at " << cut;
    EXPECT_TRUE(restored.status().IsOutOfRange()) << restored.status().ToString();
  }
}

/// Bindings with adversarial attribute values must survive the run codec:
/// serialize a run, restore it through the event table, re-serialize, and
/// compare bytes.
TEST(BindingCodecTest, AdversarialBindingsRoundTrip) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry
                  .Register("probe", {{"d", ValueType::kDouble},
                                      {"s", ValueType::kString},
                                      {"b", ValueType::kBool}})
                  .ok());
  const EventTypeId type = registry.FindType("probe");
  auto make_event = [&](Timestamp ts, double d, std::string s, bool b) {
    return std::make_shared<Event>(
        type, registry.schema(type), ts,
        std::vector<Value>{Value(d), Value(std::move(s)), Value(b)},
        static_cast<uint64_t>(ts));
  };
  const EventPtr nan_event = make_event(
      1, std::numeric_limits<double>::quiet_NaN(), std::string("a\0b", 3),
      true);
  const EventPtr inf_event =
      make_event(2, -std::numeric_limits<double>::infinity(), "", false);

  RunArena arena;
  RunPtr run = arena.New(/*id=*/7, /*num_variables=*/2, /*state=*/1,
                         /*start_ts=*/1);
  run->Bind(0, nan_event, 1);
  RunPtr child = run->Extend(/*child_id=*/8, /*var_index=*/1, inf_event,
                             /*state=*/2);

  ckpt::EventTableBuilder builder;
  ckpt::Sink runs_sink;
  CEP_ASSERT_OK(child->SerializeTo(runs_sink, &builder));
  ckpt::Sink table_sink;
  builder.Serialize(table_sink);

  ckpt::Source table_source(table_sink.bytes());
  ckpt::EventTable table;
  CEP_ASSERT_OK(table.RestoreFrom(table_source));
  ckpt::Source run_source(runs_sink.bytes());
  CEP_ASSERT_OK_AND_ASSIGN(RunPtr restored,
                           Run::RestoreFrom(run_source, table, &arena));
  ASSERT_TRUE(run_source.AtEnd());

  ckpt::EventTableBuilder builder2;
  ckpt::Sink runs_sink2;
  CEP_ASSERT_OK(restored->SerializeTo(runs_sink2, &builder2));
  EXPECT_EQ(runs_sink.bytes(), runs_sink2.bytes());
  EXPECT_EQ(restored->id(), child->id());
  EXPECT_EQ(restored->binding(0).size(), 1u);
  EXPECT_EQ(restored->binding(1).size(), 1u);
}

}  // namespace
}  // namespace cep
