#include "ckpt/io.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace cep {
namespace ckpt {

void Sink::Grow(size_t n) {
  // Fill out the whole capacity (at least doubling) so later writes find
  // headroom without reallocating.
  buf_.resize(std::max({size_ + n, 2 * buf_.size(), buf_.capacity(),
                        size_t{64}}));
}

void Sink::WriteValue(const Value& v) {
  WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      WriteBool(v.bool_value());
      break;
    case ValueType::kInt:
      WriteI64(v.int_value());
      break;
    case ValueType::kDouble:
      WriteDouble(v.double_value());
      break;
    case ValueType::kString:
      WriteString(v.string_value());
      break;
  }
}

Status Source::CheckAvailable(size_t n) const {
  if (bytes_.size() - pos_ < n) {
    return Status::OutOfRange("snapshot section truncated: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(bytes_.size() - pos_));
  }
  return Status::OK();
}

Result<uint8_t> Source::ReadU8() {
  CEP_RETURN_NOT_OK(CheckAvailable(1));
  return static_cast<uint8_t>(bytes_[pos_++]);
}

Result<uint32_t> Source::ReadU32() {
  CEP_RETURN_NOT_OK(CheckAvailable(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Source::ReadU64() {
  CEP_RETURN_NOT_OK(CheckAvailable(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Source::ReadI64() {
  CEP_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> Source::ReadDouble() {
  CEP_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> Source::ReadBool() {
  CEP_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  if (v > 1) {
    return Status::ParseError("invalid bool encoding: " + std::to_string(v));
  }
  return v != 0;
}

Result<std::string> Source::ReadString() {
  CEP_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
  CEP_RETURN_NOT_OK(CheckAvailable(size));
  std::string s(bytes_.data() + pos_, size);
  pos_ += size;
  return s;
}

Result<std::string_view> Source::ReadBytes(size_t size) {
  CEP_RETURN_NOT_OK(CheckAvailable(size));
  std::string_view view = bytes_.substr(pos_, size);
  pos_ += size;
  return view;
}

Result<Value> Source::ReadValue() {
  CEP_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      CEP_ASSIGN_OR_RETURN(bool v, ReadBool());
      return Value(v);
    }
    case ValueType::kInt: {
      CEP_ASSIGN_OR_RETURN(int64_t v, ReadI64());
      return Value(v);
    }
    case ValueType::kDouble: {
      CEP_ASSIGN_OR_RETURN(double v, ReadDouble());
      return Value(v);
    }
    case ValueType::kString: {
      CEP_ASSIGN_OR_RETURN(std::string v, ReadString());
      return Value(std::move(v));
    }
  }
  return Status::ParseError("unknown Value type tag: " + std::to_string(tag));
}

namespace {

/// entries[0] is the classic bytewise table; entries[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight table lookups advance the CRC
/// over eight input bytes at once (slicing-by-8).
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xff];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

uint32_t UpdateBytewise(const Crc32Tables& t, uint32_t crc, const uint8_t* p,
                        size_t size) {
  for (size_t i = 0; i < size; ++i) {
    crc = t.entries[0][(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

uint32_t Crc32Bytewise(const void* data, size_t size) {
  return UpdateBytewise(Tables(), 0xFFFFFFFFu,
                        static_cast<const uint8_t*>(data), size) ^
         0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  const Crc32Tables& t = Tables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; p += 8, size -= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t.entries[7][lo & 0xff] ^ t.entries[6][(lo >> 8) & 0xff] ^
            t.entries[5][(lo >> 16) & 0xff] ^ t.entries[4][lo >> 24] ^
            t.entries[3][hi & 0xff] ^ t.entries[2][(hi >> 8) & 0xff] ^
            t.entries[1][(hi >> 16) & 0xff] ^ t.entries[0][hi >> 24];
    }
  }
  return UpdateBytewise(t, crc, p, size) ^ 0xFFFFFFFFu;
}

}  // namespace ckpt
}  // namespace cep
