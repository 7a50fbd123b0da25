#ifndef CEPSHED_CKPT_MANAGER_H_
#define CEPSHED_CKPT_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "ckpt/snapshot.h"
#include "common/result.h"
#include "common/status.h"

namespace cep {
namespace ckpt {

/// True when `name` is safe to embed as one path component under a
/// checkpoint root: non-empty, at most 64 bytes, only [A-Za-z0-9_.-], and
/// not starting with a dot (no hidden files, no "." / ".." traversal).
/// Tenant and query names arrive over the network; everything that becomes
/// a directory name must pass this check.
bool IsSafePathComponent(std::string_view name);

/// Joins `root` and one validated component into a namespaced directory
/// path ("<root>/<component>"). InvalidArgument when the component fails
/// IsSafePathComponent — the caller must treat that as a protocol error,
/// not sanitize and continue.
Result<std::string> JoinNamespace(const std::string& root,
                                  std::string_view component);

/// Creates `path` as a directory if it does not exist (one level; the
/// parent must exist). IoError when the path exists as a non-directory.
Status EnsureDirectory(const std::string& path);

/// \brief Writes snapshots to a checkpoint directory from a background
/// thread, keeping the engine's event loop free of checksums and disk I/O.
///
/// The engine encodes at a quiescent point (the serial merge barrier) and
/// hands the unsealed snapshot to SubmitAsync. The writer thread computes
/// its section digests and CRC trailers, performs the atomic temp+rename
/// write and prunes old snapshots. If a new snapshot arrives while one is
/// still being written, the pending (not yet started) one is replaced:
/// under backlog we keep the newest state rather than queueing history.
class CheckpointManager {
 public:
  /// `keep` limits how many completed snapshots remain after each write
  /// (oldest pruned first); 0 means keep all.
  CheckpointManager(std::string directory, size_t keep);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Enqueues a snapshot for background sealing and write. Never blocks on
  /// I/O.
  void SubmitAsync(UnsealedSnapshot snapshot, uint64_t stream_offset);

  /// Synchronous write on the calling thread (used by Engine::Checkpoint()
  /// when the caller wants the snapshot durable before returning, and by
  /// tests).
  Status WriteNow(std::string_view blob, uint64_t stream_offset);

  /// Waits until all submitted snapshots are written; returns the first
  /// write error since the last Flush (if any).
  Status Flush();

  const std::string& directory() const { return directory_; }

  /// Number of snapshots successfully written so far.
  uint64_t snapshots_written() const;

  /// Scans `directory` for the valid snapshot with the highest stream
  /// offset, skipping temp files and files that fail CRC/parse validation.
  /// NotFound when the directory holds no valid snapshot.
  static Result<std::string> FindLatest(const std::string& directory);

 private:
  struct Pending {
    UnsealedSnapshot snapshot;
    uint64_t stream_offset = 0;
  };

  void WriterLoop();
  Status WriteAndPrune(std::string_view blob, uint64_t stream_offset);

  const std::string directory_;
  const size_t keep_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Pending> pending_;
  bool writing_ = false;
  bool stop_ = false;
  Status first_error_;
  uint64_t written_ = 0;
  std::thread writer_;
};

}  // namespace ckpt
}  // namespace cep

#endif  // CEPSHED_CKPT_MANAGER_H_
