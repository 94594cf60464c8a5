#include "fts/jit/jit_cache.h"

#include <thread>

#include "fts/common/env.h"
#include "fts/common/string_util.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"

namespace fts {

JitCache::JitCache(JitCacheOptions options)
    : compiler_(options.compiler), options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.max_compile_attempts < 1) options_.max_compile_attempts = 1;
  options_.min_compile_budget_millis = GetEnvInt64(
      "FTS_JIT_MIN_COMPILE_BUDGET_MS", options_.min_compile_budget_millis);
}

JitCache::JitCache(JitCompilerOptions compiler_options)
    : JitCache([&] {
        JitCacheOptions options;
        options.compiler = std::move(compiler_options);
        return options;
      }()) {}

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

StatusOr<JitCache::Entry> JitCache::GetOrCompile(
    const JitScanSignature& signature, QueryContext* ctx) {
  const std::string key = signature.CacheKey();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
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
    // Cache miss: deadline-aware engine selection. A remaining budget
    // below the compile floor cannot amortize a compile (nor a wait on
    // someone else's), so refuse here and let the ladder demote to a
    // precompiled rung. Intentionally NOT recorded as a failure: the
    // signature stays compilable for queries with room.
    if (ctx != nullptr && options_.min_compile_budget_millis > 0 &&
        ctx->has_deadline() &&
        ctx->RemainingMillis() <
            static_cast<double>(options_.min_compile_budget_millis)) {
      obs::Metrics().jit_compiles_skipped_budget_total->Increment();
      return Status::DeadlineExceeded(StrFormat(
          "remaining deadline budget %.1f ms is below the %lld ms JIT "
          "compile floor; demoting to a precompiled engine",
          ctx->RemainingMillis(),
          static_cast<long long>(options_.min_compile_budget_millis)));
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
    const auto flight = inflight_.find(key);
    if (flight == inflight_.end()) break;
    // Another thread is compiling this signature: wait for its verdict and
    // re-check (single-flight — no compiler stampede per chunk/query).
    ++stats_.single_flight_waits;
    const std::shared_ptr<InFlight> shared = flight->second;
    shared->cv.wait(lock, [&shared] { return shared->done; });
  }

  // This thread leads the compilation for `key`.
  const auto flight = std::make_shared<InFlight>();
  inflight_[key] = flight;
  ++stats_.misses;
  obs::Metrics().jit_cache_misses_total->Increment();
  lock.unlock();

  // A compile is a slow (>=100ms) external-toolchain round trip: run it on
  // a short-lived named thread so its span lands on a dedicated "jit
  // compile" track in traces instead of interleaving with whichever query
  // thread happened to lead the single flight. Spawn cost is noise at this
  // scale, and the cancellation kill path is unaffected (child-pid
  // bookkeeping lives inside the compiler driver).
  StatusOr<Entry> compiled =
      Status::Internal("jit compile thread did not run");
  std::thread compile_thread([&]() {
    obs::SetCurrentThreadLabel("jit compile");
    compiled = [&]() -> StatusOr<Entry> {
      obs::TraceSpan span("jit_compile", "jit");
      FTS_ASSIGN_OR_RETURN(const std::string source,
                           GenerateFusedScanSource(signature));
      FTS_ASSIGN_OR_RETURN(std::shared_ptr<JitModule> module,
                           compiler_.Compile(source, kJitScanSymbol, ctx));
      Entry entry;
      entry.module = std::move(module);
      entry.fn = reinterpret_cast<JitScanFn>(entry.module->symbol_address());
      entry.compile_millis = entry.module->compile_millis();
      entry.cache_hit = false;
      if (span.active()) {
        span.AddArg("signature", key);
        span.AddArg("compile_millis",
                    static_cast<uint64_t>(entry.compile_millis));
      }
      return entry;
    }();
  });
  compile_thread.join();

  lock.lock();
  if (compiled.ok()) {
    stats_.total_compile_millis += compiled->module->compile_millis();
    obs::Metrics().jit_compile_micros->Record(
        static_cast<uint64_t>(compiled->module->compile_millis() * 1000.0));
    failures_.erase(key);
    InsertLocked(key, *compiled);
  } else if (ctx != nullptr && ctx->cancelled()) {
    // The compile was aborted because THIS query died, which says nothing
    // about the signature or the toolchain: no poisoning, no sticky
    // unavailable latch. Single-flight waiters wake, find neither an
    // entry nor a failure, and the next one leads a fresh compile.
  } else {
    ++stats_.compile_failures;
    obs::Metrics().jit_compile_failures_total->Increment();
    Failure& failure = failures_[key];
    ++failure.attempts;
    failure.status = compiled.status();
    if (compiled.status().code() == StatusCode::kUnavailable) {
      // The compiler binary itself is unusable; no signature can compile
      // until the operator intervenes (or Clear() is called).
      compiler_unavailable_ = true;
      compiler_unavailable_status_ = compiled.status();
    }
  }
  inflight_.erase(key);
  flight->done = true;
  flight->cv.notify_all();
  return compiled;
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
  std::lock_guard<std::mutex> lock(mutex_);
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
