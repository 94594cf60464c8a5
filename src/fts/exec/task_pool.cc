#include "fts/exec/task_pool.h"

#include <algorithm>
#include <exception>

#include "fts/common/env.h"
#include "fts/common/macros.h"
#include "fts/common/string_util.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"

namespace fts {
namespace {

// Set while a thread is a pool worker (or is running a reentrant
// ParallelFor inline); nested ParallelFor calls then bypass the queues.
thread_local bool tls_inside_worker = false;

// One blocking ParallelFor invocation. Tasks share it; the submitting
// thread waits on `done_cv` until `remaining` hits zero.
struct Batch {
  explicit Batch(size_t count) : remaining(count) {}

  std::atomic<size_t> remaining;
  std::mutex mutex;
  std::condition_variable done_cv;
  // First exception thrown by a body, rethrown in the caller.
  std::exception_ptr error;

  void Finish(std::exception_ptr exception) {
    if (exception != nullptr) {
      std::lock_guard<std::mutex> lock(mutex);
      if (error == nullptr) error = exception;
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex);
      done_cv.notify_all();
    }
  }
};

}  // namespace

int TaskPool::ThreadCountFromEnv(int fallback) {
  const int64_t from_env = GetEnvInt64("FTS_THREADS", 0);
  const int64_t chosen = from_env > 0 ? from_env : fallback;
  return static_cast<int>(
      std::clamp<int64_t>(chosen, 1, kMaxTaskPoolThreads));
}

int TaskPool::DefaultThreadCount() {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return ThreadCountFromEnv(hardware);
}

TaskPool::TaskPool(int threads) {
  const int count = threads <= 0
                        ? DefaultThreadCount()
                        : std::min(threads, kMaxTaskPoolThreads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // A single-thread pool runs everything inline; don't spawn a thread
  // only to hand it every task.
  if (count == 1) return;
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool TaskPool::RunOneTask(size_t self) {
  Task task;
  bool stolen = false;
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
    }
  }
  if (task == nullptr) {
    // Steal from the back of the first non-empty victim deque, starting
    // just past ourselves so load spreads instead of piling on worker 0.
    for (size_t offset = 1; offset < workers_.size() && task == nullptr;
         ++offset) {
      Worker& victim = *workers_[(self + offset) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        stolen = true;
      }
    }
  }
  if (task == nullptr) return false;
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
    obs::Metrics().morsels_stolen_total->Increment();
  }
  task();
  return true;
}

void TaskPool::WorkerLoop(size_t self) {
  tls_inside_worker = true;
  // Registers this thread's rank + label so trace exports name one track
  // per worker ("pool worker N").
  obs::SetCurrentThreadLabel(StrFormat("pool worker %zu", self));
  for (;;) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void TaskPool::ParallelFor(size_t count,
                           const std::function<void(size_t)>& body) {
  if (count == 0) return;
  // Inline paths: single-thread pool, single task, or reentrant call from
  // inside a worker (queuing would deadlock the blocked parent batch).
  if (workers_.size() <= 1 || count == 1 || tls_inside_worker) {
    const bool was_inside = tls_inside_worker;
    tls_inside_worker = true;
    for (size_t i = 0; i < count; ++i) body(i);
    tls_inside_worker = was_inside;
    return;
  }

  auto batch = std::make_shared<Batch>(count);
  // Publish the count before the tasks become visible so a worker's
  // pending_ decrement can never transiently underflow.
  pending_.fetch_add(count, std::memory_order_acq_rel);
  for (size_t i = 0; i < count; ++i) {
    Worker& target = *workers_[i % workers_.size()];
    std::lock_guard<std::mutex> lock(target.mutex);
    target.tasks.push_back([batch, &body, i] {
      std::exception_ptr error;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
      }
      batch->Finish(error);
    });
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_all();
  }

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&batch] {
    return batch->remaining.load(std::memory_order_acquire) == 0;
  });
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

TaskPool& TaskPool::Global() {
  static TaskPool pool;
  return pool;
}

TaskPool::Stats TaskPool::stats() const {
  Stats stats;
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace fts
