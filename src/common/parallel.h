#ifndef CEPSHED_COMMON_PARALLEL_H_
#define CEPSHED_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cep {

/// \brief Persistent worker pool for data-parallel loops.
///
/// One pool hosts `num_threads - 1` worker threads; the thread calling
/// ParallelFor participates as the remaining lane, so a pool of size N runs
/// loops N-wide without handing its caller to the scheduler. Jobs are
/// index-claimed: workers pull loop indices one at a time, which balances
/// items of uneven cost (MultiEngine fans out engines whose run sets differ
/// in size). Loop bodies must not call ParallelFor on the same pool.
///
/// All job state is mutex-guarded; the pool is intentionally boring so that
/// it is obviously correct under ThreadSanitizer. Loop bodies must not
/// throw; they communicate failure through their captured state
/// (MultiEngine records one Status per engine).
class ThreadPool {
 public:
  /// A pool of total width `num_threads` (caller lane included); values
  /// 0 and 1 create a pool with no workers, on which ParallelFor runs the
  /// loop inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel width, caller lane included.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs `fn(i)` for every i in [0, n), potentially in parallel, and
  /// returns once all n calls completed. The calling thread participates.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn) {
    auto thunk = [](void* ctx, size_t i) {
      (*static_cast<std::remove_reference_t<Fn>*>(ctx))(i);
    };
    ParallelForRaw(n, thunk,
                   const_cast<void*>(
                       static_cast<const void*>(std::addressof(fn))));
  }

 private:
  void ParallelForRaw(size_t n, void (*fn)(void*, size_t), void* ctx);
  void WorkerLoop();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: a job has items to claim
  std::condition_variable done_cv_;   // submitter: job drained / pool free
  bool stop_ = false;
  bool job_active_ = false;
  void (*job_fn_)(void*, size_t) = nullptr;
  void* job_ctx_ = nullptr;
  size_t job_n_ = 0;
  size_t job_next_ = 0;     // next unclaimed index
  size_t job_pending_ = 0;  // claimed-or-unclaimed items not yet finished
};

}  // namespace cep

#endif  // CEPSHED_COMMON_PARALLEL_H_
