#ifndef FTS_OBS_METRICS_H_
#define FTS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace fts::obs {

// Process-lifetime metrics for the query engine. Hot-path recording is a
// single relaxed atomic add on a cache-line-private stripe — no locks, no
// allocation — so scan kernels, morsel workers, and the JIT cache can
// record unconditionally. Exposition (Prometheus text or JSON) walks the
// registry under a mutex that the hot path never takes.

// Monotonic counter, striped across cache lines to keep concurrent
// increments from different TaskPool workers off one contended line. The
// stripe is picked per thread; Value() sums all stripes (exact, since
// increments are atomic and monotone).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) noexcept {
    stripes_[StripeIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() noexcept { Add(1); }

  uint64_t Value() const noexcept {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() noexcept {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  // Stable per-thread stripe index (thread id hashed once per thread).
  static size_t StripeIndex() noexcept;

  Stripe stripes_[kStripes];
};

// Histogram over base-2 exponential buckets: bucket i counts values v with
// bit_width(v) == i, i.e. [2^(i-1), 2^i). Covers the full uint64 range in
// 64 buckets plus a zero bucket folded into bucket 0. Recording is two
// relaxed atomic adds. Percentiles linearly interpolate inside the bucket,
// so the relative error is bounded by the bucket ratio (2x).
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width in [0, 64].

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) noexcept;

  uint64_t Count() const noexcept;
  uint64_t Sum() const noexcept;
  uint64_t BucketCount(size_t bucket) const noexcept;

  // Inclusive lower / exclusive upper value bound of `bucket`.
  static uint64_t BucketLowerBound(size_t bucket);
  static uint64_t BucketUpperBound(size_t bucket);

  // Linear-interpolated percentile, p in [0, 100]. 0 when empty.
  double Percentile(double p) const;

  void Reset() noexcept;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Name-keyed registry. Get* registers on first use and returns a stable
// pointer (metrics are never deallocated while the registry lives), so hot
// paths resolve their metric once and keep the pointer. Names follow the
// Prometheus convention (`fts_..._total` for counters); labels are encoded
// in the name string (`fts_engine_executions_total{engine="jit"}`), which
// the text exposition passes through verbatim.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  // Registers a gauge: an instantaneous value sampled by callback at
  // exposition time (process RSS, live threads, cache entry counts).
  // The callback runs under the registry mutex, so it must not call back
  // into the registry (Get*/Register*/Render*) — read your own state and
  // return. Re-registering a name replaces the callback.
  void RegisterGauge(const std::string& name, const std::string& help,
                     std::function<uint64_t()> fn);

  // Prometheus text exposition format (counters, gauges, histogram
  // buckets).
  std::string RenderPrometheus() const;
  // JSON dump: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string RenderJson() const;

  // Zeroes every registered counter and histogram (tests and the shell's
  // registry reset). Gauges are instantaneous samples; they stay.
  void Reset();

  static MetricsRegistry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<uint64_t()>> gauges_;
  std::map<std::string, std::string> help_;
};

// The engine's predefined metrics, resolved once against the global
// registry. Per-engine execution counters live with the ScanEngine enum
// (fts/scan/scan_engine.h: EngineExecutionCounter) to keep this layer free
// of upward dependencies.
struct EngineMetrics {
  Counter* queries_total;
  Counter* scans_total;
  Counter* rows_scanned_total;
  Counter* rows_emitted_total;
  Counter* chunks_pruned_total;
  Counter* stages_dropped_total;
  Counter* morsels_total;
  Counter* morsels_stolen_total;
  Counter* jit_cache_hits_total;
  Counter* jit_cache_misses_total;
  Counter* jit_cache_negative_hits_total;
  Counter* jit_compile_failures_total;
  Counter* degradation_events_total;
  Counter* rows_ingested_total;
  Counter* chunks_built_total;
  // Query lifecycle (deadlines / cancellation / admission control).
  Counter* queries_cancelled_total;
  Counter* queries_deadline_exceeded_total;
  Counter* admission_rejected_total;
  Counter* morsels_aborted_total;
  Counter* jit_compiles_killed_total;
  Histogram* jit_compile_micros;
  Histogram* query_micros;
  Histogram* admission_queue_wait_micros;
  // Per-worker PMU attribution totals (hardware-sourced reads only).
  Counter* scan_cycles_total;
  Counter* scan_instructions_total;
  Counter* scan_branches_total;
  Counter* scan_branch_misses_total;
  // Always-on query statistics (fts/obs/query_log.h).
  Counter* slow_queries_total;
};

// Global instance backed by MetricsRegistry::Global().
const EngineMetrics& Metrics();

}  // namespace fts::obs

#endif  // FTS_OBS_METRICS_H_
