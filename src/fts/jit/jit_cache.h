#ifndef FTS_JIT_JIT_CACHE_H_
#define FTS_JIT_JIT_CACHE_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "fts/common/status.h"
#include "fts/jit/code_generator.h"
#include "fts/jit/compiler_driver.h"
#include "fts/jit/scan_signature.h"

namespace fts {

struct JitCacheOptions {
  JitCompilerOptions compiler;
  // Maximum resident compiled modules; the least recently used entry is
  // evicted beyond this (in-flight users stay alive via shared_ptr).
  size_t capacity = 64;
  // Compile attempts per signature before it is poisoned: further requests
  // return the cached failure without invoking the compiler again.
  int max_compile_attempts = 2;
};

// Signature-keyed cache of compiled fused-scan operators. Section V:
// "Especially when compiled operators are cached for future use, we do not
// see the additional compile time as a deciding bottleneck." Thread-safe.
//
// Compiles run one at a time on a compile worker the cache owns, started
// on the first miss and run at the lowest CPU priority: a miss queues the
// signature and returns at once (Lookup), so a query never blocks on a
// compile unless it asks to (GetOrCompile).
//
// Robustness properties (all observable through Stats):
//   - single-flight: a signature is queued at most once; every request
//     for it finds the same pending compile;
//   - negative caching: a signature whose compilation failed is retried at
//     most max_compile_attempts times, then poisoned — per-chunk execution
//     cannot stampede a broken toolchain;
//   - sticky compiler-unavailable: when the compiler binary itself cannot
//     be executed (kUnavailable), every signature short-circuits until
//     Clear() — no signature can compile without a compiler;
//   - bounded capacity with LRU eviction;
//   - no orphans: Clear(), destruction and process exit kill an in-flight
//     compiler (its whole process group) and remove its scratch directory
//     before they return.
class JitCache {
 public:
  JitCache() : JitCache(JitCacheOptions()) {}
  explicit JitCache(JitCacheOptions options);
  // Legacy convenience: cache with default bounds over `compiler_options`.
  explicit JitCache(JitCompilerOptions compiler_options);
  // Stops the compile worker like Clear() does.
  ~JitCache();

  JitCache(const JitCache&) = delete;
  JitCache& operator=(const JitCache&) = delete;

  struct Entry {
    std::shared_ptr<JitModule> module;
    // Null while the signature's compile is queued or running (Lookup).
    JitScanFn fn = nullptr;
    // Attribution for the request that produced this copy of the entry:
    // a cache hit returns cache_hit = true; the request that queued the
    // compile returns queued = true, and — when it waited for the result
    // (GetOrCompile) — the compile wall time. Callers accumulate these
    // into their query's ExecutionReport.
    double compile_millis = 0.0;
    bool cache_hit = false;
    bool queued = false;
  };

  // Tiered lookup: returns the compiled operator for `signature` when it
  // is resident. Otherwise queues its compile on the worker (unless it is
  // already queued or running) and returns an entry whose fn is null; the
  // caller runs a static engine meanwhile and asks again later. Poisoned
  // signatures and the compiler-unavailable latch return their failure.
  StatusOr<Entry> Lookup(const JitScanSignature& signature);

  // Blocking lookup: like Lookup, then waits for the worker's verdict on
  // this signature. `ctx` (nullable) makes the wait cancellable: a
  // canceled or expired query stops waiting and returns its cancel
  // status, while the compile runs on for later queries.
  StatusOr<Entry> GetOrCompile(const JitScanSignature& signature,
                               QueryContext* ctx = nullptr);

  // Blocks until no compile is queued or running. For tests and
  // benchmarks that need the compiled tier.
  void WaitForPendingCompiles();

  // The driver owning the child-process bookkeeping (tests assert killed
  // compiles are reaped through this).
  const JitCompiler& compiler() const { return compiler_; }

  struct Stats {
    uint64_t hits = 0;
    // Compilations queued by this cache (successful or not).
    uint64_t misses = 0;
    // Requests short-circuited by a poisoned signature or a sticky
    // compiler-unavailable state (degradation events).
    uint64_t negative_hits = 0;
    uint64_t compile_failures = 0;
    // Blocking requests that waited on a compile another request queued.
    uint64_t single_flight_waits = 0;
    // Tiered lookups that found their signature's compile still queued or
    // running (the caller ran a static engine instead).
    uint64_t pending_lookups = 0;
    uint64_t evictions = 0;
    double total_compile_millis = 0.0;
  };
  Stats stats() const;

  // Resident compiled modules.
  size_t size() const;

  // Drops all cached modules (the shared_ptrs keep in-flight users alive),
  // forgets negative entries, clears the compiler-unavailable latch, drops
  // queued compiles and kills the running one; returns once the compiler
  // process is reaped and its scratch directory removed.
  void Clear();

  const JitCacheOptions& options() const { return options_; }

 private:
  struct Resident {
    Entry entry;
    std::list<std::string>::iterator lru;  // Position in lru_.
  };
  struct Failure {
    Status status;
    int attempts = 0;
  };
  // One queued compile. `done` and `status` are written under mutex_ when
  // the worker (or Clear) retires the job; `dropped` marks a job retired
  // without a verdict (Clear or shutdown), whose waiters look again.
  struct Job {
    std::string key;
    JitScanSignature signature;
    bool done = false;
    bool dropped = false;
    Status status;
  };
  // Stops the process-wide cache's worker at exit.
  friend JitCache& GlobalJitCache();

  // Under mutex_: the resident entry (counting the hit), the failure that
  // short-circuits `key`, or a pending entry (fn null) whose job — found
  // or queued now (`queued` set) — lands in `job`; `job` stays null when
  // the worker has stopped.
  StatusOr<Entry> LookupLocked(const std::string& key,
                               const JitScanSignature& signature,
                               std::shared_ptr<Job>* job);
  void InsertLocked(const std::string& key, const Entry& entry);
  // Retires every queued job and cancels the running compile; the caller
  // holds `lock` and gets it back once the worker has let go of the job.
  void DrainLocked(std::unique_lock<std::mutex>& lock);
  void CompileLoop();
  // Drains, stops and joins the worker (destructor and process exit).
  void StopWorker();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // Worker: a job was queued / stop.
  std::condition_variable done_cv_;  // Waiters: some job retired.
  JitCompiler compiler_;
  JitCacheOptions options_;
  std::map<std::string, Resident> entries_;
  std::list<std::string> lru_;  // Front = most recently used.
  std::map<std::string, Failure> failures_;
  std::map<std::string, std::shared_ptr<Job>> pending_;  // Queued or running.
  std::deque<std::shared_ptr<Job>> queue_;  // Not yet started, FIFO.
  std::shared_ptr<Job> running_;
  // Cancels the running compile (the driver polls it between waitpid
  // probes); null when the worker is idle.
  std::shared_ptr<QueryContext> running_ctx_;
  std::thread worker_;
  // The process that started worker_ (0 until then).
  std::atomic<pid_t> worker_pid_{0};
  bool stopping_ = false;
  bool compiler_unavailable_ = false;
  Status compiler_unavailable_status_;
  Stats stats_;
};

// Process-wide cache instance the scan executor's kJit rungs use by
// default (ParallelScanOptions::cache).
JitCache& GlobalJitCache();

}  // namespace fts

#endif  // FTS_JIT_JIT_CACHE_H_
