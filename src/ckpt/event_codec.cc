#include "ckpt/event_codec.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/hash.h"

namespace cep {
namespace ckpt {

namespace {

constexpr size_t kMinSlots = 64;

/// Hash of an encoded record, for this process's lookup only (never
/// persisted): one multiply per eight bytes, one full mix at the end.
uint64_t HashRecord(const char* data, size_t size) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ size;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, data, size);
  return Mix64(h ^ tail);
}

size_t PointerHash(const Event* event) {
  return static_cast<size_t>(Mix64(reinterpret_cast<uintptr_t>(event)));
}

}  // namespace

void EventTableBuilder::Clear() {
  schema_ids_.clear();
  schema_records_.Clear();
  schema_begin_.clear();
  records_.Clear();
  record_begin_.clear();
  std::fill(by_pointer_.begin(), by_pointer_.end(), PointerSlot{nullptr, 0});
  pointers_ = 0;
  std::fill(by_content_.begin(), by_content_.end(), ContentSlot{0, 0});
}

uint32_t EventTableBuilder::InternSchema(const EventSchema& schema) {
  for (const auto& [known, id] : schema_ids_) {
    if (known == &schema) return id;
  }
  const size_t begin = schema_records_.size();
  schema_records_.WriteString(schema.name());
  schema_records_.WriteU32(static_cast<uint32_t>(schema.num_attributes()));
  for (const auto& attr : schema.attributes()) {
    schema_records_.WriteString(attr.name);
    schema_records_.WriteU8(static_cast<uint8_t>(attr.type));
  }
  // A handful of schemas per engine: compare encodings directly.
  const std::string_view all = schema_records_.bytes();
  const std::string_view record = all.substr(begin);
  uint32_t id = static_cast<uint32_t>(schema_begin_.size());
  for (uint32_t s = 0; s < schema_begin_.size(); ++s) {
    const size_t end = s + 1 < schema_begin_.size() ? schema_begin_[s + 1]
                                                    : begin;
    if (all.substr(schema_begin_[s], end - schema_begin_[s]) == record) {
      id = s;
      break;
    }
  }
  if (id == schema_begin_.size()) {
    schema_begin_.push_back(begin);
  } else {
    schema_records_.Truncate(begin);
  }
  schema_ids_.emplace_back(&schema, id);
  return id;
}

uint32_t EventTableBuilder::Intern(const Event& event) {
  if (2 * (pointers_ + 1) > by_pointer_.size()) GrowPointers();
  const size_t mask = by_pointer_.size() - 1;
  size_t slot = PointerHash(&event) & mask;
  for (; by_pointer_[slot].id != 0; slot = (slot + 1) & mask) {
    if (by_pointer_[slot].event == &event) return by_pointer_[slot].id - 1;
  }
  const size_t begin = records_.size();
  records_.WriteU32(InternSchema(event.schema()));
  records_.WriteU32(event.type());
  records_.WriteI64(event.timestamp());
  records_.WriteU64(event.sequence());
  records_.WriteU32(static_cast<uint32_t>(event.num_attributes()));
  for (size_t i = 0; i < event.num_attributes(); ++i) {
    records_.WriteValue(event.attribute(static_cast<int>(i)));
  }
  const uint32_t id = InternRecord(begin);
  by_pointer_[slot] = PointerSlot{&event, id + 1};
  ++pointers_;
  return id;
}

uint32_t EventTableBuilder::InternRecord(size_t begin) {
  if (2 * (record_begin_.size() + 1) > by_content_.size()) GrowContent();
  const std::string_view all = records_.bytes();
  const std::string_view record = all.substr(begin);
  const uint64_t hash = HashRecord(record.data(), record.size());
  const size_t mask = by_content_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  for (; by_content_[slot].id != 0; slot = (slot + 1) & mask) {
    if (by_content_[slot].hash != hash) continue;
    const uint32_t id = by_content_[slot].id - 1;
    const size_t end =
        id + 1 < record_begin_.size() ? record_begin_[id + 1] : begin;
    if (all.substr(record_begin_[id], end - record_begin_[id]) == record) {
      records_.Truncate(begin);
      return id;
    }
  }
  const uint32_t id = static_cast<uint32_t>(record_begin_.size());
  record_begin_.push_back(begin);
  by_content_[slot] = ContentSlot{hash, id + 1};
  return id;
}

void EventTableBuilder::GrowPointers() {
  std::vector<PointerSlot> old = std::move(by_pointer_);
  by_pointer_.assign(std::max(kMinSlots, 2 * old.size()),
                     PointerSlot{nullptr, 0});
  const size_t mask = by_pointer_.size() - 1;
  for (const PointerSlot& entry : old) {
    if (entry.id == 0) continue;
    size_t slot = PointerHash(entry.event) & mask;
    while (by_pointer_[slot].id != 0) slot = (slot + 1) & mask;
    by_pointer_[slot] = entry;
  }
}

void EventTableBuilder::GrowContent() {
  std::vector<ContentSlot> old = std::move(by_content_);
  by_content_.assign(std::max(kMinSlots, 2 * old.size()), ContentSlot{0, 0});
  const size_t mask = by_content_.size() - 1;
  for (const ContentSlot& entry : old) {
    if (entry.id == 0) continue;
    size_t slot = static_cast<size_t>(entry.hash) & mask;
    while (by_content_[slot].id != 0) slot = (slot + 1) & mask;
    by_content_[slot] = entry;
  }
}

void EventTableBuilder::Serialize(Sink& sink) const {
  sink.WriteU32(static_cast<uint32_t>(schema_begin_.size()));
  sink.WriteBytes(schema_records_.bytes().data(), schema_records_.size());
  sink.WriteU32(static_cast<uint32_t>(record_begin_.size()));
  sink.WriteBytes(records_.bytes().data(), records_.size());
}

Status EventTable::RestoreFrom(Source& source) {
  events_.clear();
  CEP_ASSIGN_OR_RETURN(uint32_t num_schemas, source.ReadU32());
  std::vector<SchemaPtr> schemas;
  schemas.reserve(num_schemas);
  for (uint32_t s = 0; s < num_schemas; ++s) {
    CEP_ASSIGN_OR_RETURN(std::string name, source.ReadString());
    CEP_ASSIGN_OR_RETURN(uint32_t num_attrs, source.ReadU32());
    std::vector<AttributeDef> attrs;
    attrs.reserve(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      AttributeDef def;
      CEP_ASSIGN_OR_RETURN(def.name, source.ReadString());
      CEP_ASSIGN_OR_RETURN(uint8_t type_tag, source.ReadU8());
      if (type_tag > static_cast<uint8_t>(ValueType::kString)) {
        return Status::ParseError("invalid attribute type tag " +
                                  std::to_string(type_tag) + " in schema '" +
                                  name + "'");
      }
      def.type = static_cast<ValueType>(type_tag);
      attrs.push_back(std::move(def));
    }
    schemas.push_back(
        std::make_shared<const EventSchema>(std::move(name), std::move(attrs)));
  }

  CEP_ASSIGN_OR_RETURN(uint32_t num_events, source.ReadU32());
  events_.reserve(num_events);
  for (uint32_t e = 0; e < num_events; ++e) {
    CEP_ASSIGN_OR_RETURN(uint32_t schema_id, source.ReadU32());
    if (schema_id >= schemas.size()) {
      return Status::ParseError("event references schema " +
                                std::to_string(schema_id) + " of " +
                                std::to_string(schemas.size()));
    }
    CEP_ASSIGN_OR_RETURN(uint32_t type, source.ReadU32());
    CEP_ASSIGN_OR_RETURN(int64_t timestamp, source.ReadI64());
    CEP_ASSIGN_OR_RETURN(uint64_t sequence, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(uint32_t num_attrs, source.ReadU32());
    std::vector<Value> values;
    values.reserve(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      CEP_ASSIGN_OR_RETURN(Value v, source.ReadValue());
      values.push_back(std::move(v));
    }
    events_.push_back(std::make_shared<const Event>(
        type, schemas[schema_id], timestamp, std::move(values), sequence));
  }
  return Status::OK();
}

Result<EventPtr> EventTable::Get(uint32_t index) const {
  if (index >= events_.size()) {
    return Status::OutOfRange("event table index " + std::to_string(index) +
                              " out of range (" + std::to_string(events_.size()) +
                              " entries)");
  }
  return events_[index];
}

}  // namespace ckpt
}  // namespace cep
