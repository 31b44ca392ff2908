#ifndef SPADE_EXEC_THREAD_POOL_H_
#define SPADE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/cancel.h"

namespace spade {

/// \brief Fixed-size worker pool over one mutex-guarded FIFO queue.
///
/// Submit locks, pushes and unlocks, then wakes one worker. A worker pops
/// under the lock and runs the task outside it. Spade's parallelism is
/// coarse (fact sets, lattice slices, fact shards): a serving or churn
/// workload submits on the order of 10^3 tasks per second, far below what
/// one queue lock sustains, so per-worker lock-free deques measured no
/// better here and were removed (ARCHITECTURE.md, "Scheduling").
///
/// The destructor drains before joining: a task submitted is a task run,
/// including tasks submitted by running tasks. A worker exits only once stop
/// is set, the queue is empty AND no task is running, since a running task
/// may still submit, and may block on what it submitted.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Tasks must not throw (use TaskScheduler::ParallelFor
  /// for exception propagation).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), never less than 1.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  size_t running_ = 0;                       // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
  std::vector<std::thread> workers_;
};

/// \brief Cooperative fork-join scheduling on top of a ThreadPool.
///
/// A null or single-threaded pool degrades to inline serial execution, so
/// callers write one code path. ParallelFor is safe to nest (a task body may
/// itself call ParallelFor on the same scheduler): the calling thread always
/// participates in the loop, so progress never depends on a pool worker
/// being free.
class TaskScheduler {
 public:
  /// `pool` may be null: every operation then runs inline on the caller.
  explicit TaskScheduler(ThreadPool* pool) : pool_(pool) {}

  /// The calling thread always participates in ParallelFor, so a pool of K
  /// workers gives K + 1 compute threads. Spade sizes the pool at
  /// num_threads - 1 for this reason.
  bool parallel() const { return pool_ != nullptr && pool_->num_threads() > 0; }
  /// Total compute threads a ParallelFor can use, caller included.
  size_t num_threads() const { return parallel() ? pool_->num_threads() + 1 : 1; }

  /// Run fn(0) .. fn(n-1), potentially concurrently, and block until all
  /// completed. Indexes are claimed atomically, so the distribution over
  /// threads is dynamic. The first exception thrown by any fn is rethrown
  /// on the calling thread after the loop drains.
  ///
  /// When `cancel` is non-null and cancel->AbortNow() becomes true,
  /// participants stop executing bodies for newly claimed indexes (already
  /// running bodies finish normally) and the loop drains early. The caller
  /// decides what a partially executed loop means; bodies that must not be
  /// skipped mid-range should check the token themselves.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const CancelCheck* cancel = nullptr);

  /// The underlying pool (null when serial). TaskGroup submits through this;
  /// algorithm code should prefer ParallelFor / TaskGroup.
  ThreadPool* pool() const { return pool_; }

 private:
  ThreadPool* pool_;
};

/// \brief A TaskScheduler together with the pool it schedules on, sized
/// from a thread count: 0 = hardware concurrency, 1 = serial (no pool).
/// The calling thread takes part in every ParallelFor, so `num_threads`
/// compute threads need a pool of num_threads - 1 workers; this is the one
/// place that rule lives.
class OwnedScheduler {
 public:
  explicit OwnedScheduler(size_t num_threads);

  OwnedScheduler(const OwnedScheduler&) = delete;
  OwnedScheduler& operator=(const OwnedScheduler&) = delete;

  TaskScheduler* get() { return &scheduler_; }
  /// Resolved compute threads, caller included.
  size_t num_threads() const { return scheduler_.num_threads(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
  TaskScheduler scheduler_;
};

/// \brief A join handle over independently submitted tasks — the async
/// counterpart of ParallelFor, built for producer/consumer pipelines where
/// tasks are discovered one at a time (the streaming ingest submits one
/// scatter task per parsed chunk while the parser keeps running).
///
/// Run() enqueues a task on the scheduler's pool; on a serial scheduler it
/// executes inline, so pipeline code has exactly one code path. Wait()
/// blocks until every submitted task finished and rethrows the first
/// exception any task threw. WaitPendingBelow() is the bounded-queue
/// backpressure primitive: a producer calls it before submitting to cap the
/// number of in-flight tasks (and therefore buffered chunks).
///
/// Tasks must not themselves Wait() on this group, and the group must
/// outlive its tasks (the destructor waits). One thread drives Run/Wait;
/// the tasks themselves may run on any pool worker.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler* scheduler) : scheduler_(scheduler) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit one task (inline on a serial scheduler). Exceptions are captured
  /// and rethrown by Wait(), never propagated to the pool.
  void Run(std::function<void()> task);

  /// Block until every task submitted so far has finished; rethrows the
  /// first captured exception.
  void Wait();

  /// Block until fewer than `cap` submitted tasks remain unfinished
  /// (cap >= 1; no-op on a serial scheduler, where nothing is ever pending).
  void WaitPendingBelow(size_t cap);

 private:
  TaskScheduler* scheduler_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t pending_ = 0;               // guarded by mutex_
  std::exception_ptr error_;         // guarded by mutex_
};

}  // namespace spade

#endif  // SPADE_EXEC_THREAD_POOL_H_
