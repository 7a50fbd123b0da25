#include "ckpt/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/hash.h"

namespace cep {
namespace ckpt {

std::string UnsealedSnapshot::Seal() && {
  for (const SealRange& range : seals_) {
    const char* data = sink_.bytes().data() + range.begin;
    const size_t size = range.end - range.begin;
    if (range.crc) {
      sink_.PatchU32(range.end, Crc32(data, size));
    } else {
      sink_.PatchU64(range.end, HashBytes(data, size));
    }
  }
  seals_.clear();
  return sink_.TakeBytes();
}

SnapshotBuilder::SnapshotBuilder(uint64_t stream_offset, size_t size_hint)
    : out_(&owned_) {
  sink().Reserve(size_hint);
  WriteHeader(stream_offset);
}

SnapshotBuilder::SnapshotBuilder(SnapshotBuilder* parent,
                                 uint64_t stream_offset)
    : out_(parent->out_) {
  WriteHeader(stream_offset);
}

void SnapshotBuilder::WriteHeader(uint64_t stream_offset) {
  begin_ = sink().size();
  sink().WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  sink().WriteU32(kSnapshotVersion);
  sink().WriteU32(0);  // flags
  sink().WriteU64(stream_offset);
  count_at_ = sink().size();
  sink().WriteU32(0);
}

size_t SnapshotBuilder::OpenSection(std::string_view name) {
  sink().WriteString(name);
  sink().WriteU64(0);  // payload size, patched by CloseSection
  return sink().size();
}

void SnapshotBuilder::CloseSection(size_t payload_begin) {
  const size_t payload_end = sink().size();
  sink().PatchU64(payload_begin - 8, payload_end - payload_begin);
  out_->seals_.push_back({payload_begin, payload_end, /*crc=*/false});
  sink().WriteU64(0);  // digest
  ++sections_;
}

void SnapshotBuilder::Close() {
  sink().PatchU32(count_at_, sections_);
  out_->seals_.push_back({begin_, sink().size(), /*crc=*/true});
  sink().WriteU32(0);  // CRC trailer
}

Status SnapshotBuilder::AddComponents(const ComponentRegistry& registry) {
  for (const auto& entry : registry.entries()) {
    const size_t payload_begin = OpenSection(entry.name);
    CEP_RETURN_NOT_OK(entry.component->SerializeTo(sink()).WithContext(
        "serializing component '" + entry.name + "'"));
    CloseSection(payload_begin);
  }
  return Status::OK();
}

void SnapshotBuilder::AddSection(std::string_view name,
                                 std::string_view payload) {
  const size_t payload_begin = OpenSection(name);
  sink().WriteBytes(payload.data(), payload.size());
  CloseSection(payload_begin);
}

Status SnapshotBuilder::AddNestedSnapshot(
    std::string_view name, uint64_t stream_offset,
    const std::function<Status(SnapshotBuilder&)>& fill) {
  const size_t payload_begin = OpenSection(name);
  SnapshotBuilder nested(this, stream_offset);
  CEP_RETURN_NOT_OK(fill(nested));
  nested.Close();
  CloseSection(payload_begin);
  return Status::OK();
}

std::string SnapshotBuilder::Finish() {
  return std::move(FinishUnsealed()).Seal();
}

UnsealedSnapshot SnapshotBuilder::FinishUnsealed() {
  Close();
  return std::move(owned_);
}

Result<SnapshotView> ParseSnapshot(std::string_view bytes) {
  constexpr size_t kMinSize = sizeof(kSnapshotMagic) + 4 + 4 + 8 + 4 + 4;
  if (bytes.size() < kMinSize) {
    return Status::DataLoss("snapshot too short (" +
                            std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::ParseError("bad snapshot magic");
  }
  // CRC covers everything before the 4-byte trailer.
  std::string_view body = bytes.substr(0, bytes.size() - 4);
  Source trailer(bytes.substr(bytes.size() - 4));
  CEP_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.ReadU32());
  uint32_t actual_crc = Crc32(body);
  if (stored_crc != actual_crc) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "CRC mismatch: stored %08x, computed %08x",
                  stored_crc, actual_crc);
    return Status::DataLoss(buf);
  }

  Source source(body.substr(sizeof(kSnapshotMagic)));
  SnapshotView view;
  CEP_ASSIGN_OR_RETURN(view.version, source.ReadU32());
  if (view.version != kSnapshotVersion) {
    return Status::ParseError("unsupported snapshot version " +
                              std::to_string(view.version));
  }
  CEP_ASSIGN_OR_RETURN(uint32_t flags, source.ReadU32());
  (void)flags;
  CEP_ASSIGN_OR_RETURN(view.stream_offset, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(uint32_t count, source.ReadU32());
  view.sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SnapshotSection section;
    CEP_ASSIGN_OR_RETURN(section.name, source.ReadString());
    CEP_ASSIGN_OR_RETURN(uint64_t payload_size, source.ReadU64());
    CEP_ASSIGN_OR_RETURN(section.payload, source.ReadBytes(payload_size));
    CEP_ASSIGN_OR_RETURN(section.digest, source.ReadU64());
    uint64_t actual =
        HashBytes(section.payload.data(), section.payload.size());
    if (actual != section.digest) {
      return Status::DataLoss("digest mismatch in section '" + section.name +
                              "'");
    }
    view.sections.push_back(std::move(section));
  }
  if (!source.AtEnd()) {
    return Status::ParseError("trailing bytes after last snapshot section");
  }
  return view;
}

Status RestoreComponents(const SnapshotView& view,
                         const ComponentRegistry& registry) {
  if (view.sections.size() != registry.entries().size()) {
    return Status::NotFound(
        "snapshot has " + std::to_string(view.sections.size()) +
        " sections but engine registers " +
        std::to_string(registry.entries().size()) +
        " components (configuration mismatch)");
  }
  for (const auto& entry : registry.entries()) {
    const SnapshotSection* section = view.Find(entry.name);
    if (section == nullptr) {
      return Status::NotFound("snapshot missing section '" + entry.name +
                              "' (configuration mismatch)");
    }
    Source source(section->payload);
    CEP_RETURN_NOT_OK(entry.component->RestoreFrom(source).WithContext(
        "restoring component '" + entry.name + "'"));
    if (!source.AtEnd()) {
      return Status::ParseError("component '" + entry.name + "' left " +
                                std::to_string(source.remaining()) +
                                " unread bytes");
    }
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + kSnapshotTempSuffix;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open '" + tmp + "': " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st =
          Status::IoError("write '" + tmp + "': " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IoError("fsync '" + tmp + "': " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("close '" + tmp + "': " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IoError("rename '" + tmp + "' -> '" + path +
                                "': " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return st;
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open '" + path + "': " + std::strerror(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st =
          Status::IoError("read '" + path + "': " + std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

std::string SnapshotFileName(uint64_t stream_offset) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020llu%s",
                static_cast<unsigned long long>(stream_offset),
                kSnapshotExtension);
  return buf;
}

Result<uint64_t> ParseSnapshotFileName(std::string_view filename) {
  constexpr std::string_view kPrefix = "ckpt-";
  const std::string_view ext = kSnapshotExtension;
  if (filename.size() <= kPrefix.size() + ext.size() ||
      filename.substr(0, kPrefix.size()) != kPrefix ||
      filename.substr(filename.size() - ext.size()) != ext) {
    return Status::NotFound("not a snapshot filename: " +
                            std::string(filename));
  }
  std::string_view digits = filename.substr(
      kPrefix.size(), filename.size() - kPrefix.size() - ext.size());
  uint64_t offset = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::NotFound("not a snapshot filename: " +
                              std::string(filename));
    }
    offset = offset * 10 + static_cast<uint64_t>(c - '0');
  }
  return offset;
}

}  // namespace ckpt
}  // namespace cep
