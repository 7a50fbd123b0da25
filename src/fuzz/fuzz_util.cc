#include "fuzz/fuzz_util.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>
#include <vector>

#include "ckpt/io.h"
#include "ckpt/snapshot.h"
#include "common/result.h"
#include "event/csv.h"
#include "event/schema.h"
#include "nfa/compiler.h"
#include "query/analyzer.h"
#include "query/parser.h"

// A violated property is a finding for both drivers (libFuzzer traps the
// abort; the replay driver's exit code fails ctest).
#define CEP_FUZZ_CHECK(cond, msg)                               \
  do {                                                          \
    if (!(cond)) {                                              \
      std::fprintf(stderr, "fuzz property violated: %s\n", msg); \
      std::abort();                                             \
    }                                                           \
  } while (0)

namespace cep {
namespace fuzz {

uint8_t FuzzInput::TakeByte() {
  if (pos_ >= size_) return 0;
  return data_[pos_++];
}

uint64_t FuzzInput::TakeU64() {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | TakeByte();
  return v;
}

uint64_t FuzzInput::TakeBounded(uint64_t n) {
  if (n == 0) return 0;
  // Modulo bias is irrelevant here: coverage, not statistics, drives fuzzing.
  return TakeU64() % n;
}

std::string FuzzInput::TakeString(size_t max_len) {
  const size_t len =
      static_cast<size_t>(TakeBounded(static_cast<uint64_t>(max_len) + 1));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len && pos_ < size_; ++i) {
    out.push_back(static_cast<char>(data_[pos_++]));
  }
  return out;
}

std::string FuzzInput::TakeRest() {
  std::string out(reinterpret_cast<const char*>(data_ + pos_), size_ - pos_);
  pos_ = size_;
  return out;
}

namespace {

/// Event types every fuzz target agrees on. Intentionally double-free:
/// doubles print through %.6g in CSV, so a double attribute would make the
/// write -> reread round-trip property fail for reasons that are not bugs.
const SchemaRegistry& FuzzRegistry() {
  static const SchemaRegistry* registry = [] {
    auto* r = new SchemaRegistry();
    (void)r->Register("req", {{"loc", ValueType::kInt},
                              {"uid", ValueType::kInt}});
    (void)r->Register("avail", {{"loc", ValueType::kInt},
                                {"bid", ValueType::kInt}});
    (void)r->Register("unlock", {{"loc", ValueType::kInt},
                                 {"uid", ValueType::kInt},
                                 {"bid", ValueType::kInt}});
    (void)r->Register("note", {{"txt", ValueType::kString},
                               {"n", ValueType::kInt}});
    return r;
  }();
  return *registry;
}

// --- query assembly ---------------------------------------------------------

constexpr const char* kTypeNames[] = {"req", "avail", "unlock", "note", "zzz"};
constexpr const char* kPredicates[] = {
    "a.loc >= 0",
    "c.uid = a.uid",
    "diff(b[i].loc, a.loc) < 8",
    "b[i].loc > b[i-1].loc",
    "COUNT(b[]) > 2",
    "abs(a.loc - 3) + min(a.uid, 5) < max(a.loc, 9)",
    "a.loc = 1 AND (a.uid = 2 OR NOT a.uid = 3)",
    "b[first].loc <= b[last].loc",
};
constexpr const char* kUnits[] = {"us", "ms", "sec", "min", "hour", "hours",
                                  "parsecs"};

/// Grammar-directed query text: mostly well-formed, with fuzz-driven
/// structure choices and occasional raw-byte splices so the parser sees both
/// deep valid shapes and near-miss corruptions.
std::string AssembleQuery(FuzzInput& in) {
  std::string q = "PATTERN SEQ(";
  const uint64_t elems = 1 + in.TakeBounded(4);
  for (uint64_t i = 0; i < elems; ++i) {
    if (i != 0) q += ", ";
    const uint64_t kind = in.TakeBounded(4);
    const char* type = kTypeNames[in.TakeBounded(std::size(kTypeNames))];
    const char var = static_cast<char>('a' + (i % 26));
    switch (kind) {
      case 0:
        q += type;
        q += ' ';
        q += var;
        break;
      case 1:  // Kleene plus
        q += type;
        q += "+ ";
        q += var;
        q += "[]";
        break;
      case 2:  // negation
        q += in.TakeBool() ? "NOT " : "! ";
        q += type;
        q += ' ';
        q += var;
        break;
      default:  // raw splice
        q += in.TakeString(12);
        break;
    }
  }
  q += ")";
  const uint64_t preds = in.TakeBounded(4);
  if (preds > 0) {
    q += " WHERE ";
    for (uint64_t i = 0; i < preds; ++i) {
      if (i != 0) q += ", ";
      if (in.TakeBounded(8) == 0) {
        q += in.TakeString(16);
      } else {
        q += kPredicates[in.TakeBounded(std::size(kPredicates))];
      }
    }
  }
  q += " WITHIN ";
  q += std::to_string(in.TakeBounded(1u << 20));
  q += ' ';
  q += kUnits[in.TakeBounded(std::size(kUnits))];
  if (in.TakeBool()) {
    q += " RETURN warning(loc = a.loc)";
  }
  if (in.TakeBool()) {
    q += " -- ";
    q += in.TakeString(8);
  }
  // Truncation exercises every "unexpected end of input" path.
  if (in.TakeBounded(4) == 0) {
    q.resize(static_cast<size_t>(in.TakeBounded(q.size() + 1)));
  }
  return q;
}

// --- CSV assembly -----------------------------------------------------------

std::string AssembleCsvField(FuzzInput& in) {
  switch (in.TakeBounded(6)) {
    case 0:
      return std::to_string(in.TakeI64());
    case 1:
      return "";  // null
    case 2: {  // quoted string with embedded separators / quotes / newlines
      std::string raw = in.TakeString(10);
      if (in.TakeBool()) raw += ",\"\"\n";
      std::string quoted = "\"";
      for (const char c : raw) {
        quoted += c;
        if (c == '"') quoted += '"';
      }
      quoted += '"';
      return quoted;
    }
    case 3:
      return "9223372036854775807";  // INT64_MAX
    case 4:
      return "99999999999999999999999";  // overflows int64
    default:
      return in.TakeString(6);
  }
}

constexpr const char* kTimestamps[] = {
    "0", "60000000", "9223372036854775807", "-9223372036854775808",
    "999999999999999999999", "not-a-number"};

std::string AssembleCsv(FuzzInput& in) {
  std::string text;
  const uint64_t records = 1 + in.TakeBounded(8);
  for (uint64_t r = 0; r < records; ++r) {
    std::string line;
    if (in.TakeBounded(8) == 0) {
      line = in.TakeString(24);  // raw garbage record
    } else {
      line = kTypeNames[in.TakeBounded(std::size(kTypeNames))];
      line += ',';
      line += kTimestamps[in.TakeBounded(std::size(kTimestamps))];
      const uint64_t fields = in.TakeBounded(5);
      for (uint64_t f = 0; f < fields; ++f) {
        line += ',';
        line += AssembleCsvField(in);
      }
    }
    text += line;
    text += in.TakeBounded(8) == 0 ? "\r\n" : "\n";
  }
  return text;
}

void CsvPipeline(const std::string& text) {
  const SchemaRegistry& registry = FuzzRegistry();
  {
    std::istringstream strict(text);
    (void)ReadEventsCsv(registry, strict);  // first error fails the read
  }
  std::istringstream in(text);
  CsvReadOptions options;
  options.max_consecutive_errors = 4;
  CsvReadStats stats;
  auto events_r = ReadEventsCsv(registry, in, options, &stats);
  if (!events_r.ok()) return;
  const std::vector<EventPtr>& events = events_r.ValueOrDie();

  // Round-trip property: whatever the quarantining reader accepted must
  // serialize to CSV that a *strict* reader maps back to the same events.
  std::ostringstream rewritten;
  CEP_FUZZ_CHECK(WriteEventsCsv(rewritten, events).ok(),
                 "WriteEventsCsv failed on events the reader accepted");
  std::istringstream reread_in(rewritten.str());
  auto reread_r = ReadEventsCsv(registry, reread_in);
  CEP_FUZZ_CHECK(reread_r.ok(), "writer output rejected by strict reader");
  const std::vector<EventPtr>& reread = reread_r.ValueOrDie();
  CEP_FUZZ_CHECK(reread.size() == events.size(),
                 "CSV round-trip changed the event count");
  for (size_t i = 0; i < events.size(); ++i) {
    CEP_FUZZ_CHECK(
        EventToCsvLine(*events[i]) == EventToCsvLine(*reread[i]),
        "CSV round-trip changed an event");
  }
}

// --- snapshot / codec -------------------------------------------------------

/// Interprets fuzz bytes as a read program against the range-checked Source.
void SourceReadProgram(FuzzInput& in, std::string_view bytes) {
  ckpt::Source source(bytes);
  for (int op = 0; op < 64 && !source.AtEnd(); ++op) {
    bool ok = true;
    switch (in.TakeBounded(9)) {
      case 0: ok = source.ReadU8().ok(); break;
      case 1: ok = source.ReadU32().ok(); break;
      case 2: ok = source.ReadU64().ok(); break;
      case 3: ok = source.ReadI64().ok(); break;
      case 4: ok = source.ReadDouble().ok(); break;
      case 5: ok = source.ReadBool().ok(); break;
      case 6: ok = source.ReadString().ok(); break;
      case 7: ok = source.ReadValue().ok(); break;
      default:
        ok = source.ReadBytes(static_cast<size_t>(in.TakeBounded(64))).ok();
        break;
    }
    if (!ok) break;  // range-checked refusal, not a crash: working as intended
  }
}

Value FuzzValue(FuzzInput& in) {
  switch (in.TakeBounded(5)) {
    case 0: return Value();
    case 1: return Value(in.TakeBool());
    case 2: return Value(in.TakeI64());
    case 3:
      // Bit pattern, not a numeric literal: NaN payloads, infinities, and
      // subnormals must all survive the codec.
      return Value(std::bit_cast<double>(in.TakeU64()));
    default: return Value(in.TakeString(12));
  }
}

void ValueCodecRoundTrip(FuzzInput& in) {
  ckpt::Sink sink;
  const uint64_t count = in.TakeBounded(8);
  for (uint64_t i = 0; i < count; ++i) sink.WriteValue(FuzzValue(in));
  ckpt::Source source(sink.bytes());
  ckpt::Sink rewritten;
  for (uint64_t i = 0; i < count; ++i) {
    auto value = source.ReadValue();
    CEP_FUZZ_CHECK(value.ok(), "Value codec rejected its own output");
    rewritten.WriteValue(value.ValueOrDie());
  }
  // Byte-level comparison sidesteps NaN != NaN.
  CEP_FUZZ_CHECK(rewritten.bytes() == sink.bytes(),
                 "Value codec round-trip changed the encoding");
}

/// Parses `bytes` as a snapshot and, to a bounded depth, every section
/// payload that is itself a snapshot (MultiEngine and tenant snapshots nest
/// their engines' snapshots as sections).
void ParseNested(std::string_view bytes, int depth) {
  auto parsed = ckpt::ParseSnapshot(bytes);
  if (!parsed.ok() || depth == 0) return;
  for (const ckpt::SnapshotSection& section : parsed.ValueOrDie().sections) {
    if (section.payload.substr(0, sizeof(ckpt::kSnapshotMagic)) ==
        std::string_view(ckpt::kSnapshotMagic, sizeof(ckpt::kSnapshotMagic))) {
      ParseNested(section.payload, depth - 1);
    }
  }
}

void SnapshotAssemblyPipeline(FuzzInput& in) {
  ckpt::SnapshotBuilder builder(in.TakeU64());
  const uint64_t sections = in.TakeBounded(5);
  for (uint64_t s = 0; s < sections; ++s) {
    const std::string name = in.TakeString(8);
    const std::string payload = in.TakeString(32);
    builder.AddSection(name, payload);
  }
  std::string bytes = builder.Finish();
  auto parsed = ckpt::ParseSnapshot(bytes);
  CEP_FUZZ_CHECK(parsed.ok(), "freshly built snapshot failed to parse");
  CEP_FUZZ_CHECK(parsed.ValueOrDie().sections.size() == sections,
                 "built snapshot lost sections");

  // Any actual change to the image must be rejected (CRC trailer plus
  // per-section digests): flip a few bytes or truncate, then reparse.
  const std::string original = bytes;
  if (in.TakeBool()) {
    bytes.resize(static_cast<size_t>(in.TakeBounded(bytes.size())));
  } else {
    const uint64_t flips = 1 + in.TakeBounded(3);
    for (uint64_t f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(in.TakeBounded(bytes.size()));
      bytes[at] = static_cast<char>(bytes[at] ^ (in.TakeByte() | 1));
    }
  }
  auto reparsed = ckpt::ParseSnapshot(bytes);
  if (bytes != original) {
    CEP_FUZZ_CHECK(!reparsed.ok(), "corrupted snapshot parsed successfully");
  }
}

}  // namespace

void RunQueryFuzz(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const uint8_t mode = in.TakeByte();
  const std::string text = (mode % 4 == 0) ? in.TakeRest() : AssembleQuery(in);

  auto parsed = ParseQuery(text);
  if (!parsed.ok()) return;  // rejection is the correct outcome

  // Printer fixpoint: ToString() must reparse, and the second print must be
  // byte-identical (otherwise saved queries drift on every load/save cycle).
  const std::string printed = parsed.ValueOrDie().ToString();
  auto reparsed = ParseQuery(printed);
  CEP_FUZZ_CHECK(reparsed.ok(), "ParsedQuery::ToString() output failed to parse");
  CEP_FUZZ_CHECK(reparsed.ValueOrDie().ToString() == printed,
                 "ParsedQuery::ToString() is not a fixpoint");

  auto analyzed = Analyze(parsed.MoveValueUnsafe(), FuzzRegistry());
  if (!analyzed.ok()) return;  // unknown types/attributes etc.
  if (analyzed.ValueOrDie().query.pattern.size() <= 6) {
    (void)CompileToNfa(analyzed.MoveValueUnsafe());
  }
}

void RunCsvFuzz(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const uint8_t mode = in.TakeByte();
  if (mode % 4 == 0) {
    const std::string raw = in.TakeRest();
    (void)SplitCsvRecord(raw);
    CsvPipeline(raw);
  } else {
    CsvPipeline(AssembleCsv(in));
  }
}

void RunSnapshotFuzz(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  switch (in.TakeByte() % 4) {
    case 0: {
      const std::string raw = in.TakeRest();
      ParseNested(raw, /*depth=*/2);
      break;
    }
    case 1: {
      const std::string program = in.TakeString(64);
      const std::string bytes = in.TakeRest();
      FuzzInput ops(reinterpret_cast<const uint8_t*>(program.data()),
                    program.size());
      SourceReadProgram(ops, bytes);
      break;
    }
    case 2:
      ValueCodecRoundTrip(in);
      break;
    default:
      SnapshotAssemblyPipeline(in);
      break;
  }
}

}  // namespace fuzz
}  // namespace cep
