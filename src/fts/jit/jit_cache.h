#ifndef FTS_JIT_JIT_CACHE_H_
#define FTS_JIT_JIT_CACHE_H_

#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

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
  // Deadline-aware engine selection: a query whose remaining deadline
  // budget is below this floor does not start a compile for a cache miss
  // (kDeadlineExceeded is returned and the ladder demotes to a
  // precompiled rung). A compile latency the budget cannot amortize is a
  // robustness hazard on short queries, not a perf win. Overridden by
  // FTS_JIT_MIN_COMPILE_BUDGET_MS; <= 0 disables the floor.
  int64_t min_compile_budget_millis = 100;
};

// Signature-keyed cache of compiled fused-scan operators. Section V:
// "Especially when compiled operators are cached for future use, we do not
// see the additional compile time as a deciding bottleneck." Thread-safe.
//
// Robustness properties (all observable through Stats):
//   - single-flight: concurrent requests for one signature trigger exactly
//     one compilation; the others wait for its result;
//   - negative caching: a signature whose compilation failed is retried at
//     most max_compile_attempts times, then poisoned — per-chunk execution
//     cannot stampede a broken toolchain;
//   - sticky compiler-unavailable: when the compiler binary itself cannot
//     be executed (kUnavailable), every signature short-circuits until
//     Clear() — no signature can compile without a compiler;
//   - bounded capacity with LRU eviction.
class JitCache {
 public:
  JitCache() : JitCache(JitCacheOptions()) {}
  explicit JitCache(JitCacheOptions options);
  // Legacy convenience: cache with default bounds over `compiler_options`.
  explicit JitCache(JitCompilerOptions compiler_options);

  struct Entry {
    std::shared_ptr<JitModule> module;
    JitScanFn fn = nullptr;
    // Attribution for the request that produced this copy of the entry:
    // a cache hit returns {0.0, true}; the request that led the compile
    // returns the compile wall time with cache_hit = false. Callers
    // accumulate these into their query's ExecutionReport.
    double compile_millis = 0.0;
    bool cache_hit = false;
  };

  // Returns the compiled operator for `signature`, generating and
  // compiling it on first use. `ctx` (nullable) makes the compile
  // lifecycle-aware: a cache hit is always served, but a miss is refused
  // when the remaining deadline budget is below the compile floor, an
  // in-flight compile is killed when the query is canceled, and — unlike
  // real toolchain failures — a cancellation-driven abort is NOT recorded
  // against the signature (no poisoning, no sticky latch): the next query
  // compiles it fresh.
  StatusOr<Entry> GetOrCompile(const JitScanSignature& signature,
                               QueryContext* ctx = nullptr);

  // The driver owning the child-process bookkeeping (tests assert killed
  // compiles are reaped through this).
  const JitCompiler& compiler() const { return compiler_; }

  struct Stats {
    uint64_t hits = 0;
    // Compilations led by this cache (successful or not).
    uint64_t misses = 0;
    // Requests short-circuited by a poisoned signature or a sticky
    // compiler-unavailable state (degradation events).
    uint64_t negative_hits = 0;
    uint64_t compile_failures = 0;
    // Requests that waited on another thread's in-flight compilation.
    uint64_t single_flight_waits = 0;
    uint64_t evictions = 0;
    double total_compile_millis = 0.0;
  };
  Stats stats() const;

  // Resident compiled modules.
  size_t size() const;

  // Drops all cached modules (the shared_ptrs keep in-flight users alive),
  // forgets negative entries, and clears the compiler-unavailable latch.
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
  struct InFlight {
    bool done = false;
    std::condition_variable cv;
  };

  // Inserts under mutex_ and evicts beyond capacity.
  void InsertLocked(const std::string& key, const Entry& entry);

  mutable std::mutex mutex_;
  JitCompiler compiler_;
  JitCacheOptions options_;
  std::map<std::string, Resident> entries_;
  std::list<std::string> lru_;  // Front = most recently used.
  std::map<std::string, Failure> failures_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;
  bool compiler_unavailable_ = false;
  Status compiler_unavailable_status_;
  Stats stats_;
};

// Process-wide cache instance the scan executor's kJit rungs use by
// default (ParallelScanOptions::cache).
JitCache& GlobalJitCache();

}  // namespace fts

#endif  // FTS_JIT_JIT_CACHE_H_
