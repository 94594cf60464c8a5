#ifndef FTS_EXEC_TASK_POOL_H_
#define FTS_EXEC_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fts {

// Upper bound on pool width; FTS_THREADS is clamped to it.
inline constexpr int kMaxTaskPoolThreads = 256;

// Fixed-size work-stealing thread pool — the scheduler under the morsel
// loop (fts/exec/morsel_loop.h).
//
// Structure (Hyrise/TBB-style, sized for chunk-granular morsels):
//   - N worker threads, fixed at construction; no dynamic growth.
//   - One deque per worker. ParallelFor distributes tasks round-robin
//     across the deques; a worker pops its own deque from the front and,
//     when empty, steals from the back of another worker's deque, so
//     skewed morsels (one chunk compiling a JIT operator while others
//     finish instantly) rebalance automatically.
//   - Idle workers sleep on a condition variable; submission wakes them.
//
// ParallelFor blocks the caller until every index has run, which makes
// the pool usable as a drop-in "run these morsels" primitive: no task
// handles, no futures, deterministic completion. Reentrant ParallelFor
// calls from inside a worker run inline (no deadlock, no oversubscription).
class TaskPool {
 public:
  // `threads` <= 0 selects DefaultThreadCount().
  explicit TaskPool(int threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // FTS_THREADS when set and positive (clamped to kMaxTaskPoolThreads),
  // else `fallback`. The env override lets every harness — fts_shell, the
  // benches, ctest — select the pool width without recompiling.
  static int ThreadCountFromEnv(int fallback);

  // Pool width when none is requested: FTS_THREADS, else the hardware
  // concurrency (at least 1).
  static int DefaultThreadCount();

  // Runs body(index) for every index in [0, count); returns when all have
  // completed. Tasks run on the pool's workers while the caller blocks,
  // so a pool of N threads scans with exactly N threads. With a
  // single-thread pool (or when called from inside a pool worker) the
  // body runs inline on the calling thread, index order ascending.
  // A body exception is rethrown in the caller after the batch drains.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  // Process-wide pool, built on first use with DefaultThreadCount().
  static TaskPool& Global();

  struct Stats {
    uint64_t executed = 0;  // Tasks run by pool workers.
    uint64_t steals = 0;    // Tasks taken from another worker's deque.
  };
  Stats stats() const;

 private:
  using Task = std::function<void()>;

  struct Worker {
    std::mutex mutex;
    std::deque<Task> tasks;
    std::thread thread;
  };

  void WorkerLoop(size_t self);
  // Pops own deque front, then steals from other deques' backs. Returns
  // false when no task was found anywhere.
  bool RunOneTask(size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> steals_{0};
};

}  // namespace fts

#endif  // FTS_EXEC_TASK_POOL_H_
