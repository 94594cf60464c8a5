#include "fts/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "fts/obs/json_writer.h"

namespace fts::obs {

size_t Counter::StripeIndex() noexcept {
  // Hash the thread id once per thread; consecutive worker threads land on
  // distinct stripes with high probability (16 stripes vs the pool's
  // typical 4-32 workers).
  thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kStripes;
  return stripe;
}

void Histogram::Record(uint64_t value) noexcept {
  const size_t bucket = static_cast<size_t>(std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

uint64_t Histogram::Sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

uint64_t Histogram::BucketCount(size_t bucket) const noexcept {
  return bucket < kBuckets ? buckets_[bucket].load(std::memory_order_relaxed)
                           : 0;
}

uint64_t Histogram::BucketLowerBound(size_t bucket) {
  if (bucket == 0) return 0;
  return uint64_t{1} << (bucket - 1);
}

uint64_t Histogram::BucketUpperBound(size_t bucket) {
  if (bucket == 0) return 1;
  if (bucket >= 64) return ~uint64_t{0};
  return uint64_t{1} << bucket;
}

double Histogram::Percentile(double p) const {
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the requested percentile, 1-based.
  const double rank = p / 100.0 * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lo = static_cast<double>(BucketLowerBound(b));
      const double hi = static_cast<double>(BucketUpperBound(b));
      const double within =
          std::clamp((rank - static_cast<double>(seen)) /
                         static_cast<double>(in_bucket),
                     0.0, 1.0);
      return lo + (hi - lo) * within;
    }
    seen += in_bucket;
  }
  return static_cast<double>(BucketUpperBound(kBuckets - 1));
}

void Histogram::Reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return it->second.get();
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    const std::string& help,
                                    std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = std::move(fn);
  if (!help.empty()) help_[name] = help;
}

namespace {

// Splits "name{labels}" so histogram suffixes can be inserted before the
// label block, per the Prometheus exposition format.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char buf[160];
  // HELP/TYPE name the metric family (label-less base); labelled series of
  // the same family share one header. counters_ is an ordered map, so the
  // series of a family are contiguous.
  std::string last_family;
  for (const auto& [name, counter] : counters_) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    if (base != last_family) {
      if (const auto help = help_.find(name); help != help_.end()) {
        out += "# HELP " + base + " " + help->second + "\n";
      }
      out += "# TYPE " + base + " counter\n";
      last_family = base;
    }
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(counter->Value()));
    out += name + " " + buf + "\n";
  }
  last_family.clear();
  for (const auto& [name, gauge] : gauges_) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    if (base != last_family) {
      if (const auto help = help_.find(name); help != help_.end()) {
        out += "# HELP " + base + " " + help->second + "\n";
      }
      out += "# TYPE " + base + " gauge\n";
      last_family = base;
    }
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(gauge()));
    out += name + " " + buf + "\n";
  }
  last_family.clear();
  for (const auto& [name, hist] : histograms_) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    if (base != last_family) {
      if (const auto help = help_.find(name); help != help_.end()) {
        out += "# HELP " + base + " " + help->second + "\n";
      }
      out += "# TYPE " + base + " histogram\n";
      last_family = base;
    }
    uint64_t cumulative = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      const uint64_t in_bucket = hist->BucketCount(b);
      if (in_bucket == 0) continue;
      cumulative += in_bucket;
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%llu\"} %llu\n",
                    base.c_str(),
                    static_cast<unsigned long long>(
                        Histogram::BucketUpperBound(b)),
                    static_cast<unsigned long long>(cumulative));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %llu\n",
                  base.c_str(),
                  static_cast<unsigned long long>(hist->Count()));
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_sum %llu\n%s_count %llu\n",
                  base.c_str(), static_cast<unsigned long long>(hist->Sum()),
                  base.c_str(), static_cast<unsigned long long>(hist->Count()));
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json;
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Number(counter->Value());
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Number(gauge());
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, hist] : histograms_) {
    json.Key(name).BeginObject();
    json.Key("count").Number(hist->Count());
    json.Key("sum").Number(hist->Sum());
    json.Key("p50").Number(hist->Percentile(50));
    json.Key("p90").Number(hist->Percentile(90));
    json.Key("p99").Number(hist->Percentile(99));
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

namespace {

// Reads one numeric field ("VmRSS", "Threads", ...) from
// /proc/self/status. 0 when the file or field is missing (non-Linux or
// restricted /proc) — a gauge that reads 0 beats one that errors.
uint64_t ProcSelfStatusField(const char* field) {
  FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  const size_t field_len = std::strlen(field);
  char line[256];
  uint64_t value = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, field_len) != 0 ||
        line[field_len] != ':') {
      continue;
    }
    std::sscanf(line + field_len + 1, "%llu",
                reinterpret_cast<unsigned long long*>(&value));
    break;
  }
  std::fclose(file);
  return value;
}

// Process-level gauges (RSS, uptime, live threads). Registered when the
// global registry is created so every exposition carries them, whether or
// not a query ever ran. The uptime epoch is the registry's creation —
// effectively process start, since the first metric touch creates it.
void RegisterProcessGauges(MetricsRegistry* registry) {
  static const auto start = std::chrono::steady_clock::now();
  registry->RegisterGauge("fts_process_rss_kbytes",
                          "Resident set size from /proc/self/status, in kB",
                          [] { return ProcSelfStatusField("VmRSS"); });
  registry->RegisterGauge("fts_process_threads",
                          "Live threads from /proc/self/status",
                          [] { return ProcSelfStatusField("Threads"); });
  registry->RegisterGauge(
      "fts_process_uptime_seconds",
      "Seconds since the metrics registry was created", [] {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      });
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* created = new MetricsRegistry();
    RegisterProcessGauges(created);
    return created;
  }();
  return *registry;
}

const EngineMetrics& Metrics() {
  static const EngineMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new EngineMetrics();
    m->queries_total =
        reg.GetCounter("fts_queries_total", "SQL queries executed");
    m->scans_total =
        reg.GetCounter("fts_scans_total", "Table scan operations executed");
    m->rows_scanned_total = reg.GetCounter(
        "fts_rows_scanned_total", "Rows evaluated by scan kernels");
    m->rows_emitted_total = reg.GetCounter(
        "fts_rows_emitted_total", "Rows matching all scan predicates");
    m->chunks_pruned_total = reg.GetCounter(
        "fts_chunks_pruned_total", "Chunks skipped via zone-map pruning");
    m->stages_dropped_total = reg.GetCounter(
        "fts_stages_dropped_total",
        "Predicate stages dropped as tautological per chunk");
    m->morsels_total =
        reg.GetCounter("fts_morsels_total", "Morsels dispatched to workers");
    m->morsels_stolen_total = reg.GetCounter(
        "fts_morsels_stolen_total", "Tasks stolen from another worker's deque");
    m->jit_cache_hits_total =
        reg.GetCounter("fts_jit_cache_hits_total", "JIT cache hits");
    m->jit_cache_misses_total = reg.GetCounter(
        "fts_jit_cache_misses_total", "JIT cache misses (compiles started)");
    m->jit_cache_negative_hits_total = reg.GetCounter(
        "fts_jit_cache_negative_hits_total",
        "JIT cache hits on poisoned (known-failing) entries");
    m->jit_compile_failures_total = reg.GetCounter(
        "fts_jit_compile_failures_total", "JIT compilations that failed");
    m->degradation_events_total = reg.GetCounter(
        "fts_degradation_events_total",
        "Scans that fell back below the requested engine");
    m->rows_ingested_total =
        reg.GetCounter("fts_rows_ingested_total", "Rows appended at ingest");
    m->chunks_built_total = reg.GetCounter(
        "fts_chunks_built_total", "Chunks sealed by the table builder");
    m->queries_cancelled_total = reg.GetCounter(
        "fts_queries_cancelled_total",
        "Queries that returned QueryCanceled (explicit cancel)");
    m->queries_deadline_exceeded_total = reg.GetCounter(
        "fts_queries_deadline_exceeded_total",
        "Queries that returned DeadlineExceeded");
    m->admission_rejected_total = reg.GetCounter(
        "fts_admission_rejected_total",
        "Queries rejected because the admission queue was full");
    m->morsels_aborted_total = reg.GetCounter(
        "fts_morsels_aborted_total",
        "Morsels discarded at a cancellation boundary without running");
    m->jit_compiles_killed_total = reg.GetCounter(
        "fts_jit_compiles_killed_total",
        "In-flight compiler processes killed by cancellation or deadline");
    m->jit_compile_micros = reg.GetHistogram(
        "fts_jit_compile_micros", "JIT compile latency in microseconds");
    m->query_micros = reg.GetHistogram(
        "fts_query_micros", "End-to-end SQL query latency in microseconds");
    m->admission_queue_wait_micros = reg.GetHistogram(
        "fts_admission_queue_wait_micros",
        "Time admitted queries spent waiting in the admission queue");
    m->scan_cycles_total = reg.GetCounter(
        "fts_scan_cycles_total",
        "CPU cycles attributed to scan regions (hardware PMU reads)");
    m->scan_instructions_total = reg.GetCounter(
        "fts_scan_instructions_total",
        "Instructions retired in scan regions (hardware PMU reads)");
    m->scan_branches_total = reg.GetCounter(
        "fts_scan_branches_total",
        "Branches retired in scan regions (hardware PMU reads)");
    m->scan_branch_misses_total = reg.GetCounter(
        "fts_scan_branch_misses_total",
        "Branch mispredictions in scan regions (hardware PMU reads)");
    m->slow_queries_total = reg.GetCounter(
        "fts_slow_queries_total",
        "Queries over the FTS_SLOW_QUERY_MS threshold");
    return m;
  }();
  return *metrics;
}

}  // namespace fts::obs
