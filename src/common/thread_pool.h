// A small fixed-size thread pool for fan-out work: the server's request
// workers, the query processor's per-document refinement, and the sharded
// database's per-shard builds, probes and commits.
//
// The pool is deliberately minimal: Submit enqueues a task, Wait blocks
// until every submitted task has finished. There is no futures machinery —
// callers communicate through pre-sized arrays indexed by task id, so
// workers never contend on output structures and the fallible work
// records per-slot Statuses instead of throwing.
//
// ParallelFor runs fn(0..n-1) with dynamic (claim-next) scheduling, the
// calling thread participating alongside the workers. With a null pool (or
// a single-thread pool) it degenerates to a plain sequential loop on the
// calling thread.

#ifndef FIX_COMMON_THREAD_POOL_H_
#define FIX_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fix {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw; fallible work should record a
  /// Status in caller-owned storage.
  void Submit(std::function<void()> task) FIX_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running.
  void Wait() FIX_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() FIX_EXCLUDES(mu_);

  // LOCK-ORDER: 9 ThreadPool::mu_
  Mutex mu_;
  CondVar work_cv_;  // queue became non-empty / shutdown
  CondVar idle_cv_;  // a task finished or was dequeued
  std::deque<std::function<void()>> queue_ FIX_GUARDED_BY(mu_);
  size_t active_ FIX_GUARDED_BY(mu_) = 0;  // tasks currently executing
  bool stop_ FIX_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, n) with dynamic load balancing: each
/// participant claims the next unprocessed index from a shared counter, so
/// uneven per-item cost (one huge document among many small ones) cannot
/// idle the pool. The calling thread participates; the call returns only
/// after every index has been processed. With pool == nullptr or a
/// single-thread pool the loop runs inline on the calling thread.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace fix

#endif  // FIX_COMMON_THREAD_POOL_H_
