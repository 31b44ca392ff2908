#include "src/exec/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "src/util/failpoint.h"

namespace spade {

namespace {
// Worker identity: set once per pool thread, read by Submit to route nested
// submissions onto the submitting worker's own deque (owner-side lock-free
// push). Null on every non-pool thread.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  deques_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    deques_.push_back(std::make_unique<WorkStealingDeque>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  // Workers exit only at stop && pending == 0, so every queued task — and
  // every task those tasks spawn — has run by the time the joins return.
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  auto* t = new WorkStealingDeque::Task(std::move(task));
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (tls_pool == this) {
    deques_[tls_worker]->PushBottom(t);
  } else {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    injection_.push_back(t);
  }
  // Empty critical section: orders this enqueue against any worker that is
  // deciding to sleep (it re-checks queues under the same mutex), so the
  // notify below can never be the one that got away.
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  cv_.notify_one();
}

size_t ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

OwnedScheduler::OwnedScheduler(size_t num_threads)
    : pool_([num_threads] {
        const size_t n = num_threads == 0 ? ThreadPool::HardwareConcurrency()
                                          : num_threads;
        return n > 1 ? std::make_unique<ThreadPool>(n - 1) : nullptr;
      }()),
      scheduler_(pool_.get()) {}

WorkStealingDeque::Task* ThreadPool::TryAcquire(size_t index) {
  // Own work first (LIFO keeps the task's working set hot) ...
  if (WorkStealingDeque::Task* t = deques_[index]->PopBottom()) return t;
  // ... then externally injected work ...
  {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (!injection_.empty()) {
      WorkStealingDeque::Task* t = injection_.front();
      injection_.pop_front();
      return t;
    }
  }
  // ... then steal, sweeping the other workers from our right neighbor
  // (FIFO on the victim: thieves take the oldest, coarsest task).
  for (size_t k = 1; k < deques_.size(); ++k) {
    size_t victim = (index + k) % deques_.size();
    if (WorkStealingDeque::Task* t = deques_[victim]->Steal()) return t;
  }
  return nullptr;
}

bool ThreadPool::HasQueuedWork() {
  for (const auto& d : deques_) {
    if (!d->EmptyHint()) return true;
  }
  std::lock_guard<std::mutex> lock(inject_mutex_);
  return !injection_.empty();
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_pool = this;
  tls_worker = index;
  for (;;) {
    if (WorkStealingDeque::Task* t = TryAcquire(index)) {
      (*t)();
      delete t;
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          stop_.load(std::memory_order_acquire)) {
        // Last task of the drain: wake siblings blocked on the exit check.
        { std::lock_guard<std::mutex> lock(sleep_mutex_); }
        cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
    // Re-check under the mutex: any enqueue ordered before our lock is
    // visible here; any enqueue after it will send a notify into our wait.
    // A steal we lost by a race surfaces as pending_ > 0 with running
    // owners — their completion or their spawns will notify.
    if (HasQueuedWork()) continue;
    cv_.wait(lock);
  }
}

void TaskScheduler::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                                const CancelCheck* cancel) {
  if (n == 0) return;
  if (!parallel() || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->AbortNow()) return;
      SPADE_FAILPOINT("exec.parallel_for");
      fn(i);
    }
    return;
  }

  struct State {
    std::function<void(size_t)> fn;
    size_t n = 0;
    const CancelCheck* cancel = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  // guarded by mutex
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;
  state->cancel = cancel;

  // Each participant claims indexes until none remain. Late-running helpers
  // (queued behind other work) find the loop drained and return immediately;
  // the shared_ptr keeps the state alive for them past our return. A
  // cancelled loop still claims and counts every index — it just stops
  // executing bodies — so the join condition below stays a simple counter.
  auto drain = [state] {
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      if (state->cancel == nullptr || !state->cancel->AbortNow()) {
        try {
          SPADE_FAILPOINT("exec.parallel_for");
          state->fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->n) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->cv.notify_all();
      }
    }
  };

  size_t helpers = std::min(n - 1, pool_->num_threads());
  for (size_t h = 0; h < helpers; ++h) pool_->Submit(drain);
  drain();  // the caller participates: progress even when the pool is busy

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&] { return state->done.load(std::memory_order_acquire) >= n; });
  // Move the error out under the mutex so the exception object is released on
  // this thread, not by whichever late helper drops the last State reference.
  std::exception_ptr error = std::move(state->error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

TaskGroup::~TaskGroup() {
  // A destroyed group must not leave tasks referencing it; swallow errors —
  // callers that care about exceptions call Wait() themselves.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ == 0; });
}

void TaskGroup::Run(std::function<void()> task) {
  if (!scheduler_->parallel()) {
    // Serial degradation: execute inline, but keep the parallel error
    // contract (captured, rethrown at Wait) so callers see one behavior.
    try {
      SPADE_FAILPOINT("exec.taskgroup.task");
      task();
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  scheduler_->pool()->Submit([this, task = std::move(task)] {
    try {
      SPADE_FAILPOINT("exec.taskgroup.task");
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    cv_.notify_all();  // Wait and WaitPendingBelow both watch every decrement
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ == 0; });
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void TaskGroup::WaitPendingBelow(size_t cap) {
  if (cap == 0) cap = 1;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ < cap; });
}

}  // namespace spade
