// Figure 8 (extension beyond the paper): thread-scaling sweep of the
// morsel-driven parallel scan. The paper measures single-core scans; this
// harness shows the fused kernels compose with intra-query parallelism —
// each worker runs the selected engine rung over chunk-sized morsels and
// the merged output is verified identical at every thread count.
//
// Emits one machine-readable line per configuration:
//   BENCH {"figure":"fig8_thread_scaling","engine":"...","threads":N,
//          "median_ms":...,"speedup":...}
//
// Scaling knobs: FTS_BENCH_MAX_ROWS / FTS_BENCH_REPS / FTS_BENCH_FULL
// (see bench_util.h) plus FTS_BENCH_MAX_THREADS (default: 2x hardware
// concurrency, so single-core hosts still demonstrate the no-regression
// property at 1 thread).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/cpu_info.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/exec/task_pool.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"

namespace {
using namespace fts::bench;
using fts::ScanEngine;

std::vector<int> ThreadSweep() {
  const int hardware = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  const int max_threads = static_cast<int>(fts::GetEnvInt64(
      "FTS_BENCH_MAX_THREADS", static_cast<int64_t>(hardware) * 2));
  std::vector<int> sweep;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    sweep.push_back(threads);
  }
  return sweep;
}

}  // namespace

int main() {
  PrintTitle(
      "Figure 8 -- Morsel-driven thread scaling, median runtime (ms) "
      "of COUNT(*) with 2 predicates (1% / 50%)");
  const size_t rows = ScaleRows(FullScale() ? 64'000'000 : MaxRows());
  if (rows == 0) {
    std::printf("configuration skipped (FTS_BENCH_MAX_ROWS too small)\n");
    return 0;
  }
  const int reps = Reps();
  const int hardware = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));

  fts::ScanTableOptions options;
  options.rows = rows;
  options.selectivities = {0.01, 0.5};
  options.seed = 0xF8;
  // Chunk = morsel: enough chunks that every sweep point has work to
  // steal, large enough that per-morsel dispatch cost stays negligible.
  options.chunk_size = std::max<size_t>(rows / 256, size_t{1} << 16);
  const fts::GeneratedScanTable generated = fts::MakeScanTable(options);

  fts::ScanSpec spec;
  for (size_t i = 0; i < generated.search_values.size(); ++i) {
    spec.predicates.push_back({fts::StrFormat("c%zu", i),
                               fts::CompareOp::kEq,
                               fts::Value(generated.search_values[i])});
  }
  const auto scanner = fts::TableScanner::Prepare(generated.table, spec);
  if (!scanner.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 scanner.status().ToString().c_str());
    return 1;
  }

  const ScanEngine engine =
      fts::GetCpuFeatures().HasFusedScanAvx512()
          ? ScanEngine::kAvx512Fused512
          : ScanEngine::kScalarFused;
  const uint64_t expected = generated.stage_matches.back();

  std::printf("rows = %zu, chunks = %zu, reps = %d, engine = %s, "
              "hardware threads = %d\n\n",
              rows, generated.table->chunk_count(), reps,
              fts::ScanEngineToString(engine), hardware);
  std::printf("%-10s%16s%12s\n", "threads", "median_ms", "speedup");
  PrintRule('-', 38);

  // Serial reference: morsels inline on the calling thread, no task pool
  // at all. The threads=1 sweep point must not regress it.
  const double serial_ms = MedianMillis(reps, [&] {
    const auto count =
        RunSerial(fts::ExecuteParallelScanCount, *scanner, {engine, 0});
    FTS_CHECK(count.ok() && *count == expected);
  });
  std::printf("%-10s%16.3f%12s\n", "serial", serial_ms, "1.00x");
  BenchLine("fig8_thread_scaling")
      .Field("engine", fts::ScanEngineToString(engine))
      .Field("threads", 0)
      .Field("label", "serial")
      .Field("median_ms", serial_ms)
      .Field("speedup", 1.0)
      .Emit();

  for (const int threads : ThreadSweep()) {
    // The pool is constructed outside the timed region — steady-state
    // scans reuse a live pool; thread spawn cost is not part of a scan.
    fts::TaskPool pool(threads);
    fts::ParallelScanOptions parallel_options;
    parallel_options.requested = {engine, 0};
    parallel_options.fallback = fts::FallbackPolicy::kStrict;
    parallel_options.pool = &pool;

    const double ms = MedianMillis(reps, [&] {
      const auto count =
          fts::ExecuteParallelScanCount(*scanner, parallel_options);
      FTS_CHECK(count.ok() && *count == expected);
    });
    const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
    std::printf("%-10d%16.3f%11.2fx\n", threads, ms, speedup);
    BenchLine("fig8_thread_scaling")
        .Field("engine", fts::ScanEngineToString(engine))
        .Field("threads", threads)
        .Field("median_ms", ms)
        .Field("speedup", speedup)
        .Emit();
  }

  std::printf(
      "\nEvery configuration verified against the same expected count "
      "(%llu rows).\n",
      static_cast<unsigned long long>(expected));
  return 0;
}
