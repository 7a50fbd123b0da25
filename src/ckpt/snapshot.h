#ifndef CEPSHED_CKPT_SNAPSHOT_H_
#define CEPSHED_CKPT_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/io.h"
#include "ckpt/state_component.h"
#include "common/result.h"
#include "common/status.h"

namespace cep {
namespace ckpt {

/// Snapshot file layout (version 1, all integers little-endian):
///
///   [0..7]   magic "CEPSNAP\x01"
///   u32      format version (1)
///   u32      flags (reserved, 0)
///   u64      stream offset (events consumed before this snapshot)
///   u32      component count N
///   N x {    string  component name
///            u64     payload size P
///            P bytes payload
///            u64     digest (FNV-1a of payload bytes) }
///   u32      CRC-32 of everything above
///
/// No wall-clock timestamps: equal engine state produces byte-identical
/// snapshot files, which the replay-determinism tests rely on.
inline constexpr char kSnapshotMagic[8] = {'C', 'E', 'P', 'S',
                                          'N', 'A', 'P', '\x01'};
inline constexpr uint32_t kSnapshotVersion = 1;
/// Suffix of in-progress snapshot writes; readers ignore these.
inline constexpr const char* kSnapshotTempSuffix = ".tmp";
/// Extension of completed snapshot files: ckpt-<offset>.cep
inline constexpr const char* kSnapshotExtension = ".cep";

/// \brief One named, length-prefixed component section of a parsed snapshot.
struct SnapshotSection {
  std::string name;
  std::string_view payload;  ///< view into the parsed buffer
  uint64_t digest = 0;
};

/// \brief Parsed, CRC-verified snapshot. `sections` views point into the
/// buffer passed to ParseSnapshot, which must outlive the view.
struct SnapshotView {
  uint32_t version = 0;
  uint64_t stream_offset = 0;
  std::vector<SnapshotSection> sections;

  const SnapshotSection* Find(std::string_view name) const {
    for (const auto& s : sections) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

/// \brief Encoded snapshot bytes whose section digests and CRC trailers are
/// still zero placeholders, with the byte ranges that fill them.
///
/// Digests and CRCs are pure functions of the encoded bytes, so sealing can
/// run on any thread: the checkpoint writer seals off the serving thread.
/// Ranges are kept in dependency order (a nested snapshot's digests and CRC
/// before the digest of the section that holds it).
class UnsealedSnapshot {
 public:
  UnsealedSnapshot() = default;

  /// Fills every digest and CRC and returns the snapshot file bytes.
  std::string Seal() &&;

  size_t size() const { return sink_.size(); }

 private:
  friend class SnapshotBuilder;

  /// Checksum of bytes [begin, end), stored at `end`: a u64 FNV-1a section
  /// digest, or the u32 CRC-32 trailer of a whole snapshot.
  struct SealRange {
    size_t begin = 0;
    size_t end = 0;
    bool crc = false;
  };

  Sink sink_;
  std::vector<SealRange> seals_;
};

/// \brief Encodes a snapshot straight into its final buffer: every
/// component serializes in place, lengths and counts are back-patched, and
/// nested snapshots (a MultiEngine's or tenant's engines) are written inside
/// their section rather than copied in as finished blobs.
class SnapshotBuilder {
 public:
  /// `size_hint` reserves the buffer up front (the previous snapshot's size
  /// avoids regrowing it).
  explicit SnapshotBuilder(uint64_t stream_offset, size_t size_hint = 0);

  SnapshotBuilder(const SnapshotBuilder&) = delete;
  SnapshotBuilder& operator=(const SnapshotBuilder&) = delete;

  /// Serializes every registered component into its own section.
  Status AddComponents(const ComponentRegistry& registry);

  /// Adds a section holding `payload` verbatim.
  void AddSection(std::string_view name, std::string_view payload);

  /// Adds a section whose payload is a complete snapshot at
  /// `stream_offset`, whose sections `fill` adds to the builder it is given
  /// (without finishing it: this call closes the nested snapshot).
  Status AddNestedSnapshot(
      std::string_view name, uint64_t stream_offset,
      const std::function<Status(SnapshotBuilder&)>& fill);

  /// Completes the snapshot and returns the sealed file bytes. Call once.
  std::string Finish();

  /// Completes the snapshot without computing its digests and CRCs, for a
  /// caller that seals elsewhere. Call once, instead of Finish().
  UnsealedSnapshot FinishUnsealed();

 private:
  /// A nested builder, appending to `parent`'s buffer.
  SnapshotBuilder(SnapshotBuilder* parent, uint64_t stream_offset);

  void WriteHeader(uint64_t stream_offset);
  /// Writes the section name and a size placeholder; returns where the
  /// payload starts.
  size_t OpenSection(std::string_view name);
  void CloseSection(size_t payload_begin);
  /// Patches the section count and appends the CRC placeholder.
  void Close();

  Sink& sink() { return out_->sink_; }

  UnsealedSnapshot owned_;  ///< the buffer, in a top-level builder
  UnsealedSnapshot* out_;   ///< where this builder appends
  size_t begin_ = 0;        ///< offset of this snapshot's magic in out_
  size_t count_at_ = 0;     ///< offset of the section-count placeholder
  uint32_t sections_ = 0;
};

/// Parses and validates snapshot bytes: magic, version, CRC trailer, and
/// per-section digests. CRC or digest mismatch yields DataLoss; structural
/// problems yield ParseError.
Result<SnapshotView> ParseSnapshot(std::string_view bytes);

/// Restores every section of `view` into the matching component of
/// `registry`. Fails with NotFound if a section has no registered component
/// or a component has no section (config mismatch between snapshot and
/// engine).
Status RestoreComponents(const SnapshotView& view,
                         const ComponentRegistry& registry);

/// Writes `bytes` to `path` atomically: write to `path + ".tmp"`, fsync,
/// rename. A crash mid-write leaves only a torn temp file that readers skip.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Reads a whole file into a string.
Result<std::string> ReadFileBytes(const std::string& path);

/// Composes the snapshot filename for a stream offset: ckpt-<offset>.cep
/// (offset zero-padded to 20 digits so lexicographic order equals numeric).
std::string SnapshotFileName(uint64_t stream_offset);

/// Parses a stream offset back out of a snapshot filename; returns error for
/// non-snapshot files (temp files, strangers in the directory).
Result<uint64_t> ParseSnapshotFileName(std::string_view filename);

}  // namespace ckpt
}  // namespace cep

#endif  // CEPSHED_CKPT_SNAPSHOT_H_
