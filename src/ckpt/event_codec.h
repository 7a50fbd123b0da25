#ifndef CEPSHED_CKPT_EVENT_CODEC_H_
#define CEPSHED_CKPT_EVENT_CODEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/io.h"
#include "common/result.h"
#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"

namespace cep {
namespace ckpt {

/// \brief Deduplicating event table for snapshot serialization.
///
/// Runs share events via shared_ptr, so the exponential partial-match state
/// references each arriving event many times. The snapshot stores every
/// distinct event once and encodes run bindings as indices into this table.
/// Schemas are likewise deduplicated and serialized self-contained, so
/// restore does not need access to the original SchemaRegistry.
///
/// Deduplication is keyed on the serialized record bytes, not on pointer
/// identity. This matters for replay determinism: after a restore, the
/// engine holds reconstructed copies of pre-checkpoint events alongside the
/// stream originals of post-restore events, and a later snapshot must intern
/// a logically identical event to the same slot regardless of which
/// allocation a binding happens to reference. Pointer identity is only a
/// front cache: an event already seen by address skips re-encoding, and a
/// new address is encoded once, straight into the table's contiguous record
/// buffer, and then looked up by content.
///
/// A pointer is only a valid key while its event is alive, so a builder
/// kept across snapshots must either hold every interned event alive (an
/// append-only match list does) or be Clear()ed first.
///
/// Usage: call Intern() for every event reachable from runs/matches while
/// serializing them into a side sink, then Serialize() the table itself ahead
/// of that sink's bytes.
class EventTableBuilder {
 public:
  /// Returns the table index for `event`, adding it on first sight.
  uint32_t Intern(const Event& event);
  uint32_t Intern(const EventPtr& event) { return Intern(*event); }

  /// Writes the schema table followed by the event table.
  void Serialize(Sink& sink) const;

  size_t size() const { return record_begin_.size(); }

  /// Forgets every entry, keeping the storage for the next snapshot.
  void Clear();

 private:
  /// Open-addressing slot; `id` is the table index plus one, 0 when empty.
  struct PointerSlot {
    const Event* event;
    uint32_t id;
  };
  struct ContentSlot {
    uint64_t hash;
    uint32_t id;
  };

  uint32_t InternSchema(const EventSchema& schema);
  /// Index of the record equal to bytes [begin, records_.size()), adding it
  /// when new.
  uint32_t InternRecord(size_t begin);
  void GrowPointers();
  void GrowContent();

  std::vector<std::pair<const EventSchema*, uint32_t>> schema_ids_;
  Sink schema_records_;
  std::vector<size_t> schema_begin_;

  Sink records_;
  std::vector<size_t> record_begin_;
  std::vector<PointerSlot> by_pointer_;
  size_t pointers_ = 0;
  std::vector<ContentSlot> by_content_;
};

/// \brief Restored event table: resolves binding indices back to shared
/// events. Events deduplicated at serialization time come back as one shared
/// allocation, preserving the memory profile of the original engine.
class EventTable {
 public:
  Status RestoreFrom(Source& source);

  Result<EventPtr> Get(uint32_t index) const;

  size_t size() const { return events_.size(); }

 private:
  std::vector<EventPtr> events_;
};

}  // namespace ckpt
}  // namespace cep

#endif  // CEPSHED_CKPT_EVENT_CODEC_H_
