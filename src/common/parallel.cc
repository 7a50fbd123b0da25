#include "common/parallel.h"

namespace cep {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || job_next_ < job_n_; });
    if (stop_) return;
    while (job_next_ < job_n_) {
      const size_t index = job_next_++;
      auto* fn = job_fn_;
      void* ctx = job_ctx_;
      lock.unlock();
      fn(ctx, index);
      lock.lock();
      if (--job_pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelForRaw(size_t n, void (*fn)(void*, size_t),
                                void* ctx) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  // One job at a time; a second submitter (two app threads sharing a pool)
  // queues here until the pool is free.
  done_cv_.wait(lock, [this] { return !job_active_; });
  job_active_ = true;
  job_fn_ = fn;
  job_ctx_ = ctx;
  job_n_ = n;
  job_next_ = 0;
  job_pending_ = n;
  work_cv_.notify_all();
  // The caller participates: claim indices like any worker lane.
  while (job_next_ < job_n_) {
    const size_t index = job_next_++;
    lock.unlock();
    fn(ctx, index);
    lock.lock();
    --job_pending_;
  }
  done_cv_.wait(lock, [this] { return job_pending_ == 0; });
  job_active_ = false;
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
  job_n_ = 0;
  job_next_ = 0;
  done_cv_.notify_all();
}

}  // namespace cep
