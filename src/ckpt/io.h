#ifndef CEPSHED_CKPT_IO_H_
#define CEPSHED_CKPT_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace cep {
namespace ckpt {

/// \brief Append-only byte sink for snapshot serialization.
///
/// All multi-byte integers are written little-endian regardless of host
/// order; doubles are written as their IEEE-754 bit pattern so NaN payloads
/// and signed zeros round-trip exactly. Strings are length-prefixed (u32) and
/// may contain embedded NULs.
///
/// Fixed-width writes are inline: the buffer is kept sized past the written
/// bytes, so a write is a bounds check and a store (snapshots are hundreds
/// of thousands of small writes).
class Sink {
 public:
  Sink() = default;

  void WriteBytes(const void* data, size_t size) {
    if (size > 0) std::memcpy(Extend(size), data, size);
  }
  void WriteU8(uint8_t v) { *Extend(1) = static_cast<char>(v); }
  void WriteU32(uint32_t v) { StoreLE(Extend(4), v); }
  void WriteU64(uint64_t v) { StoreLE(Extend(8), v); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(s.data(), s.size());
  }
  void WriteValue(const Value& v);

  /// Overwrite bytes written earlier at `pos` (back-patching a length,
  /// count or checksum placeholder).
  void PatchU32(size_t pos, uint32_t v) { StoreLE(buf_.data() + pos, v); }
  void PatchU64(size_t pos, uint64_t v) { StoreLE(buf_.data() + pos, v); }

  std::string_view bytes() const { return {buf_.data(), size_}; }
  std::string TakeBytes() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }
  size_t size() const { return size_; }
  void Reserve(size_t capacity) { buf_.reserve(capacity); }
  /// Drops bytes past `size`, keeping the capacity.
  void Truncate(size_t size) { size_ = size; }
  /// Empties the sink, keeping the capacity.
  void Clear() { size_ = 0; }

 private:
  template <typename T>
  static void StoreLE(char* at, T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  /// Claims `n` bytes at the end and returns where they start.
  char* Extend(size_t n) {
    if (buf_.size() - size_ < n) Grow(n);
    char* at = buf_.data() + size_;
    size_ += n;
    return at;
  }
  void Grow(size_t n);

  std::string buf_;  ///< [0, size_) written; the rest is headroom
  size_t size_ = 0;
};

/// \brief Bounded cursor over serialized bytes; every read is range-checked
/// and returns OutOfRange instead of reading past the end, so a truncated or
/// corrupted section can never crash the restore path.
class Source {
 public:
  explicit Source(std::string_view bytes) : bytes_(bytes) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  /// Reads `size` raw bytes as a view into the underlying buffer (valid only
  /// while the buffer outlives the Source).
  Result<std::string_view> ReadBytes(size_t size);

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status CheckAvailable(size_t n) const;

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// range. Guards every snapshot file against torn writes and bit rot.
/// Slicing-by-8 on little-endian hosts, the bytewise loop elsewhere.
uint32_t Crc32(const void* data, size_t size);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

/// The one-byte-per-step table loop: the reference Crc32 must equal.
uint32_t Crc32Bytewise(const void* data, size_t size);

}  // namespace ckpt
}  // namespace cep

#endif  // CEPSHED_CKPT_IO_H_
