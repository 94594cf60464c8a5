#ifndef FTS_BENCH_BENCH_UTIL_H_
#define FTS_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction harnesses. Each fig*_ binary
// regenerates one figure of the paper and prints the same series as an
// aligned text table.
//
// Scaling knobs (environment):
//   FTS_BENCH_MAX_ROWS  cap on table sizes (default 16M; the paper grid
//                       goes to 132M — set FTS_BENCH_FULL=1 to restore it)
//   FTS_BENCH_REPS      repetitions per configuration (default 15; the
//                       paper uses >= 100)
//   FTS_BENCH_FULL      1 = paper-scale grid (hours on one vCPU)

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fts/common/env.h"
#include "fts/common/stats.h"
#include "fts/common/timer.h"
#include "fts/exec/parallel_scan.h"
#include "fts/obs/json_writer.h"

namespace fts::bench {

inline bool FullScale() { return GetEnvBool("FTS_BENCH_FULL", false); }

inline size_t MaxRows() {
  if (FullScale()) return 132'000'000;
  return static_cast<size_t>(GetEnvInt64("FTS_BENCH_MAX_ROWS", 16'000'000));
}

inline int Reps() {
  if (FullScale()) return 101;
  return static_cast<int>(GetEnvInt64("FTS_BENCH_REPS", 15));
}

// Caps a requested row count; returns 0 when the configuration should be
// skipped entirely (paper bars are omitted the same way when selectivity
// * rows < 1).
inline size_t ScaleRows(size_t requested) {
  return requested <= MaxRows() ? requested : 0;
}

// Median wall-clock milliseconds of `reps` runs of `fn`.
inline double MedianMillis(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Stopwatch stopwatch;
    fn();
    samples.push_back(stopwatch.ElapsedMillis());
  }
  return Median(samples);
}

// Runs a prepared scan once on the morsel executor at 1 thread under
// FallbackPolicy::kStrict: exactly `engine` on every chunk, morsels inline
// on the calling thread, no ladder — the paper's single-threaded setup.
// `execute` is ExecuteParallelScanCount or ExecuteParallelScan. Counting
// is materialize-and-size for every engine: the SISD engines collect
// their positions too. fig1 and micro_kernels call the storeless
// SisdScan*Count loops directly, and fig6 replays their branches. The
// run's ExecutionReport goes to `report` when non-null.
template <typename T>
StatusOr<T> RunSerial(StatusOr<T> (*execute)(const TableScanner&,
                                             const ParallelScanOptions&,
                                             ExecutionReport*),
                      const TableScanner& scanner, EngineChoice engine,
                      ExecutionReport* report = nullptr) {
  ParallelScanOptions options;
  options.requested = engine;
  options.fallback = FallbackPolicy::kStrict;
  options.threads = 1;
  return execute(scanner, options, report);
}

// One machine-readable result line:
//   BENCH {"figure":"fig8_thread_scaling","threads":4,"median_ms":1.234}
// Built on the same obs::JsonWriter the tracing/metrics exporters use, so
// every BENCH line is well-formed JSON (strings escaped, commas managed).
// Usage: BenchLine("fig8_thread_scaling").Field("threads", 4).Emit();
class BenchLine {
 public:
  explicit BenchLine(std::string_view figure) {
    writer_.BeginObject();
    Field("figure", figure);
  }

  BenchLine& Field(std::string_view key, std::string_view value) {
    writer_.Key(key).String(value);
    return *this;
  }
  BenchLine& Field(std::string_view key, const char* value) {
    writer_.Key(key).String(value);
    return *this;
  }
  BenchLine& Field(std::string_view key, double value) {
    writer_.Key(key).Number(value);
    return *this;
  }
  BenchLine& Field(std::string_view key, uint64_t value) {
    writer_.Key(key).Number(value);
    return *this;
  }
  BenchLine& Field(std::string_view key, int64_t value) {
    writer_.Key(key).Number(value);
    return *this;
  }
  BenchLine& Field(std::string_view key, int value) {
    writer_.Key(key).Number(value);
    return *this;
  }
  void Emit() {
    writer_.EndObject();
    std::printf("BENCH %s\n", writer_.str().c_str());
  }

 private:
  obs::JsonWriter writer_;
};

inline void PrintRule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  PrintRule('=');
}

}  // namespace fts::bench

#endif  // FTS_BENCH_BENCH_UTIL_H_
