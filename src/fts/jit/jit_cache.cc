#include "fts/jit/jit_cache.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>

#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"

namespace fts {
namespace {

StatusOr<JitCache::Entry> CompileSignature(JitCompiler& compiler,
                                           const std::string& key,
                                           const JitScanSignature& signature,
                                           QueryContext* cancel) {
  obs::TraceSpan span("jit_compile", "jit");
  FTS_ASSIGN_OR_RETURN(const std::string source,
                       GenerateFusedScanSource(signature));
  FTS_ASSIGN_OR_RETURN(std::shared_ptr<JitModule> module,
                       compiler.Compile(source, kJitScanSymbol, cancel));
  JitCache::Entry entry;
  entry.module = std::move(module);
  entry.fn = reinterpret_cast<JitScanFn>(entry.module->symbol_address());
  entry.compile_millis = entry.module->compile_millis();
  if (span.active()) {
    span.AddArg("signature", key);
    span.AddArg("compile_millis",
                static_cast<uint64_t>(entry.compile_millis));
  }
  return entry;
}

}  // namespace

JitCache::JitCache(JitCacheOptions options)
    : compiler_(options.compiler), options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.max_compile_attempts < 1) options_.max_compile_attempts = 1;
}

JitCache::JitCache(JitCompilerOptions compiler_options)
    : JitCache([&] {
        JitCacheOptions options;
        options.compiler = std::move(compiler_options);
        return options;
      }()) {}

JitCache::~JitCache() { StopWorker(); }

void JitCache::InsertLocked(const std::string& key, const Entry& entry) {
  lru_.push_front(key);
  entries_[key] = Resident{entry, lru_.begin()};
  while (entries_.size() > options_.capacity) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

StatusOr<JitCache::Entry> JitCache::LookupLocked(
    const std::string& key, const JitScanSignature& signature,
    std::shared_ptr<Job>* job) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    obs::Metrics().jit_cache_hits_total->Increment();
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    Entry entry = it->second.entry;
    entry.compile_millis = 0.0;
    entry.cache_hit = true;
    return entry;
  }
  if (compiler_unavailable_) {
    ++stats_.negative_hits;
    obs::Metrics().jit_cache_negative_hits_total->Increment();
    return compiler_unavailable_status_;
  }
  const auto failed = failures_.find(key);
  if (failed != failures_.end() &&
      failed->second.attempts >= options_.max_compile_attempts) {
    ++stats_.negative_hits;
    obs::Metrics().jit_cache_negative_hits_total->Increment();
    return failed->second.status;
  }
  Entry pending;
  const auto flight = pending_.find(key);
  if (flight != pending_.end()) {
    *job = flight->second;
    return pending;
  }
  if (stopping_) return pending;  // No worker to queue on; *job stays null.

  // Queue the compile (single flight: pending_ holds it until it retires).
  auto queued = std::make_shared<Job>();
  queued->key = key;
  queued->signature = signature;
  pending_[key] = queued;
  queue_.push_back(queued);
  ++stats_.misses;
  obs::Metrics().jit_cache_misses_total->Increment();
  if (!worker_.joinable()) {
    worker_ = std::thread(&JitCache::CompileLoop, this);
    worker_pid_.store(getpid());
  }
  work_cv_.notify_one();
  *job = queued;
  pending.queued = true;
  return pending;
}

StatusOr<JitCache::Entry> JitCache::Lookup(const JitScanSignature& signature) {
  const std::string key = signature.CacheKey();
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<Job> job;
  FTS_ASSIGN_OR_RETURN(const Entry entry, LookupLocked(key, signature, &job));
  if (entry.fn == nullptr) ++stats_.pending_lookups;
  return entry;
}

StatusOr<JitCache::Entry> JitCache::GetOrCompile(
    const JitScanSignature& signature, QueryContext* ctx) {
  const std::string key = signature.CacheKey();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::shared_ptr<Job> job;
    FTS_ASSIGN_OR_RETURN(const Entry found,
                         LookupLocked(key, signature, &job));
    if (found.fn != nullptr) return found;
    if (job == nullptr) {
      return Status::Unavailable("the JIT compile worker has stopped");
    }
    if (!found.queued) ++stats_.single_flight_waits;
    // Wait in short slices so a canceled or expired query stops waiting
    // promptly; the compile itself belongs to the cache and runs on.
    while (!job->done) {
      if (ctx == nullptr) {
        done_cv_.wait(lock, [&job] { return job->done; });
        break;
      }
      done_cv_.wait_for(lock, std::chrono::milliseconds(1),
                        [&job] { return job->done; });
      if (!job->done) FTS_RETURN_IF_ERROR(CheckCancellation(ctx));
    }
    if (job->dropped) continue;  // Cleared before a verdict: look again.
    if (!job->status.ok()) return job->status;
    const auto it = entries_.find(key);
    if (it == entries_.end()) continue;  // Evicted already: look again.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    Entry entry = it->second.entry;
    if (found.queued) {
      entry.queued = true;  // compile_millis: the compile this call waited.
    } else {
      ++stats_.hits;
      obs::Metrics().jit_cache_hits_total->Increment();
      entry.compile_millis = 0.0;
      entry.cache_hit = true;
    }
    return entry;
  }
}

void JitCache::CompileLoop() {
  obs::SetCurrentThreadLabel("jit compile");
  // Compiles are background work. At the lowest CPU priority they take
  // only the cycles the query threads leave idle (Linux nice values are
  // per thread, and the spawned compiler inherits this thread's).
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    const std::shared_ptr<Job> job = queue_.front();
    queue_.pop_front();
    const auto cancel = std::make_shared<QueryContext>();
    running_ = job;
    running_ctx_ = cancel;
    lock.unlock();

    const StatusOr<Entry> compiled =
        CompileSignature(compiler_, job->key, job->signature, cancel.get());

    lock.lock();
    if (cancel->cancelled()) {
      // Clear() or shutdown killed the compile, which says nothing about
      // the signature or the toolchain: no poisoning, no sticky latch.
      job->dropped = true;
    } else if (compiled.ok()) {
      stats_.total_compile_millis += compiled->compile_millis;
      obs::Metrics().jit_compile_micros->Record(
          static_cast<uint64_t>(compiled->compile_millis * 1000.0));
      failures_.erase(job->key);
      InsertLocked(job->key, *compiled);
    } else {
      ++stats_.compile_failures;
      obs::Metrics().jit_compile_failures_total->Increment();
      Failure& failure = failures_[job->key];
      ++failure.attempts;
      failure.status = compiled.status();
      if (compiled.status().code() == StatusCode::kUnavailable) {
        // The compiler binary itself is unusable; no signature can compile
        // until the operator intervenes (or Clear() is called).
        compiler_unavailable_ = true;
        compiler_unavailable_status_ = compiled.status();
      }
      job->status = compiled.status();
    }
    job->done = true;
    const auto flight = pending_.find(job->key);
    if (flight != pending_.end() && flight->second == job) {
      pending_.erase(flight);
    }
    running_ = nullptr;
    running_ctx_ = nullptr;
    done_cv_.notify_all();
  }
}

void JitCache::DrainLocked(std::unique_lock<std::mutex>& lock) {
  for (const std::shared_ptr<Job>& job : queue_) {
    job->done = true;
    job->dropped = true;
    pending_.erase(job->key);
  }
  queue_.clear();
  done_cv_.notify_all();
  const std::shared_ptr<Job> victim = running_;
  if (victim == nullptr) return;
  running_ctx_->Cancel(StatusCode::kQueryCanceled);
  // The driver notices within one waitpid poll, kills the compiler's
  // process group, reaps it and removes the scratch directory.
  done_cv_.wait(lock, [this, &victim] { return running_ != victim; });
}

void JitCache::StopWorker() {
  std::thread worker;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    DrainLocked(lock);
    work_cv_.notify_all();
    worker = std::move(worker_);
  }
  if (worker.joinable()) worker.join();
}

void JitCache::WaitForPendingCompiles() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock,
                [this] { return queue_.empty() && running_ == nullptr; });
}

JitCache::Stats JitCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t JitCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void JitCache::Clear() {
  std::unique_lock<std::mutex> lock(mutex_);
  DrainLocked(lock);
  entries_.clear();
  lru_.clear();
  failures_.clear();
  compiler_unavailable_ = false;
  compiler_unavailable_status_ = Status::Ok();
}

JitCache& GlobalJitCache() {
  // Function-local static reference; never destroyed (see style guide on
  // static storage duration objects).
  static JitCache& cache = *new JitCache();
  // Process exit still stops its compile worker, which kills a running
  // compiler and removes its scratch directory; a worker left running
  // past exit would orphan both. A forked child (a death test, say) holds
  // a copy of the parent's worker handle but not its thread: it skips
  // the stop.
  static const bool stop_registered = std::atexit([] {
    JitCache& global = GlobalJitCache();
    if (global.worker_pid_.load() == getpid()) global.StopWorker();
  }) == 0;
  (void)stop_registered;
  // Expose residency as a gauge. Registered here (not in fts_obs) so the
  // metrics layer keeps no dependency on the JIT layer; the callback runs
  // at exposition time under the cache mutex only, never re-entering the
  // registry.
  static const bool gauge_registered = [] {
    obs::MetricsRegistry::Global().RegisterGauge(
        "fts_jit_cache_entries",
        "Resident compiled modules in the global JIT cache.",
        [] { return static_cast<uint64_t>(GlobalJitCache().size()); });
    return true;
  }();
  (void)gauge_registered;
  return cache;
}

}  // namespace fts
