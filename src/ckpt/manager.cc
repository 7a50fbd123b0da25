#include "ckpt/manager.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace cep {
namespace ckpt {

bool IsSafePathComponent(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<std::string> JoinNamespace(const std::string& root,
                                  std::string_view component) {
  if (!IsSafePathComponent(component)) {
    return Status::InvalidArgument("unsafe path component '" +
                                   std::string(component) + "'");
  }
  std::string path = root;
  if (!path.empty() && path.back() != '/') path += '/';
  path.append(component);
  return path;
}

Status EnsureDirectory(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return Status::OK();
    return Status::IoError("'" + path + "' exists and is not a directory");
  }
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir '" + path + "': " + std::strerror(errno));
  }
  return Status::OK();
}

namespace {

/// Lists completed snapshot filenames in `directory`, sorted ascending by
/// offset (the zero-padded name makes lexicographic == numeric order).
Result<std::vector<std::string>> ListSnapshots(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    return Status::IoError("opendir '" + directory +
                           "': " + std::strerror(errno));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string_view name(entry->d_name);
    if (ParseSnapshotFileName(name).ok()) names.emplace_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string directory, size_t keep)
    : directory_(std::move(directory)), keep_(keep) {
  writer_ = std::thread([this] { WriterLoop(); });
}

CheckpointManager::~CheckpointManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void CheckpointManager::SubmitAsync(UnsealedSnapshot snapshot,
                                    uint64_t stream_offset) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Keep-latest: an unstarted pending snapshot is superseded, not queued.
    pending_ = Pending{std::move(snapshot), stream_offset};
  }
  cv_.notify_all();
}

Status CheckpointManager::WriteNow(std::string_view blob,
                                   uint64_t stream_offset) {
  Status st = WriteAndPrune(blob, stream_offset);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++written_;
  }
  return st;
}

Status CheckpointManager::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !pending_.has_value() && !writing_; });
  Status st = first_error_;
  first_error_ = Status::OK();
  return st;
}

uint64_t CheckpointManager::snapshots_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

void CheckpointManager::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || pending_.has_value(); });
    if (pending_.has_value()) {
      Pending job = std::move(*pending_);
      pending_.reset();
      writing_ = true;
      lock.unlock();
      const std::string blob = std::move(job.snapshot).Seal();
      Status st = WriteAndPrune(blob, job.stream_offset);
      lock.lock();
      writing_ = false;
      if (st.ok()) {
        ++written_;
      } else if (first_error_.ok()) {
        first_error_ = st;
      }
      cv_.notify_all();
      continue;  // drain any snapshot submitted while writing
    }
    if (stop_) return;
  }
}

Status CheckpointManager::WriteAndPrune(std::string_view blob,
                                        uint64_t stream_offset) {
  CEP_RETURN_NOT_OK(EnsureDirectory(directory_));
  const std::string path =
      directory_ + "/" + SnapshotFileName(stream_offset);
  CEP_RETURN_NOT_OK(WriteFileAtomic(path, blob));
  if (keep_ == 0) return Status::OK();
  CEP_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ListSnapshots(directory_));
  while (names.size() > keep_) {
    const std::string victim = directory_ + "/" + names.front();
    names.erase(names.begin());
    if (::unlink(victim.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError("unlink '" + victim +
                             "': " + std::strerror(errno));
    }
  }
  return Status::OK();
}

Result<std::string> CheckpointManager::FindLatest(
    const std::string& directory) {
  CEP_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ListSnapshots(directory));
  // Newest first; skip files that fail validation (torn or corrupted) so a
  // crash mid-write or a flipped bit falls back to the previous snapshot.
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const std::string path = directory + "/" + *it;
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) continue;
    if (ParseSnapshot(bytes.ValueOrDie()).ok()) return path;
  }
  return Status::NotFound("no valid snapshot in '" + directory + "'");
}

}  // namespace ckpt
}  // namespace cep
