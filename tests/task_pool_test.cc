// Scheduler-level tests for the work-stealing TaskPool and the
// morsel-driven parallel scan built on it. Everything here sticks to the
// precompiled engines (no JIT), so the whole file is meaningful under
// TSan — this test carries the `concurrency` ctest label and is a primary
// target of the FTS_SANITIZE=thread configuration.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/exec/task_pool.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "test_util.h"

namespace fts {
namespace {

TEST(TaskPoolTest, RunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);

  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.stats().executed, kCount);
}

TEST(TaskPoolTest, ReusableAcrossBatches) {
  TaskPool pool(3);
  std::atomic<size_t> total{0};
  for (int batch = 0; batch < 8; ++batch) {
    pool.ParallelFor(17, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 8u * 17u);
}

TEST(TaskPoolTest, StealsWhenOneWorkerIsSlow) {
  TaskPool pool(4);
  // Tasks are dealt round-robin, so worker 0 owns indices 0, 4, 8, ...
  // Index 0 sleeps while 15 more tasks sit in worker 0's deque; the other
  // workers drain their own queues and must steal to finish the batch.
  constexpr size_t kCount = 64;
  std::atomic<size_t> done{0};
  pool.ParallelFor(kCount, [&](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), kCount);
  EXPECT_GT(pool.stats().steals, 0u);
}

TEST(TaskPoolTest, NestedParallelForRunsInline) {
  TaskPool pool(4);
  std::atomic<size_t> inner_total{0};
  // A body that submits back into the pool must not deadlock: the nested
  // call runs inline on the worker instead of queueing behind itself.
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 64u);
}

TEST(TaskPoolTest, SingleThreadPoolRunsInlineWithoutThreads) {
  TaskPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  size_t total = 0;  // Not atomic on purpose: everything runs inline.
  pool.ParallelFor(100, [&](size_t) { ++total; });
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(pool.stats().executed, 0u);  // Inline work bypasses the queues.
}

TEST(TaskPoolTest, BodyExceptionPropagatesToCaller) {
  TaskPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(16,
                       [&](size_t i) {
                         if (i == 11) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives the failed batch.
  std::atomic<size_t> total{0};
  pool.ParallelFor(16, [&](size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 16u);
}

TEST(TaskPoolTest, ThreadCountFromEnvHonorsOverrideAndClamps) {
  ::setenv("FTS_THREADS", "3", 1);
  EXPECT_EQ(TaskPool::ThreadCountFromEnv(1), 3);
  ::setenv("FTS_THREADS", "0", 1);
  EXPECT_EQ(TaskPool::ThreadCountFromEnv(5), 5);
  ::setenv("FTS_THREADS", "99999", 1);
  EXPECT_EQ(TaskPool::ThreadCountFromEnv(1), kMaxTaskPoolThreads);
  ::unsetenv("FTS_THREADS");
  EXPECT_EQ(TaskPool::ThreadCountFromEnv(7), 7);
}

// ---------------------------------------------------------------------------
// Parallel scan on top of the pool: many small chunks, static engines only.

GeneratedScanTable SmallChunkTable() {
  ScanTableOptions options;
  options.rows = 20'000;
  options.selectivities = {0.3, 0.5};
  options.seed = 11;
  options.chunk_size = 257;  // 78 morsels, awkward tail.
  return MakeScanTable(options);
}

ScanSpec SpecFor(const GeneratedScanTable& generated) {
  ScanSpec spec;
  for (size_t i = 0; i < generated.search_values.size(); ++i) {
    spec.predicates.push_back({StrFormat("c%zu", i), CompareOp::kEq,
                               Value(generated.search_values[i])});
  }
  return spec;
}

TEST(ParallelScanTest, ManySmallMorselsMatchSerialExecution) {
  const GeneratedScanTable generated = SmallChunkTable();
  const ScanSpec spec = SpecFor(generated);
  const auto scanner = TableScanner::Prepare(generated.table, spec);
  ASSERT_TRUE(scanner.ok());

  // Serial = the same engine with the morsels inline on the caller.
  const ParallelScanOptions inline_options =
      testing::StrictOptions({ScanEngine::kScalarFused, 0});
  const auto serial = ExecuteParallelScan(*scanner, inline_options);
  ASSERT_TRUE(serial.ok());
  const auto serial_count = ExecuteParallelScanCount(*scanner, inline_options);
  ASSERT_TRUE(serial_count.ok());
  EXPECT_EQ(*serial_count, generated.stage_matches.back());

  TaskPool pool(4);
  for (int round = 0; round < 4; ++round) {
    ParallelScanOptions options;
    options.requested = {ScanEngine::kScalarFused, 0};
    options.fallback = FallbackPolicy::kStrict;
    options.pool = &pool;
    ExecutionReport report;
    const auto parallel = ExecuteParallelScan(*scanner, options, &report);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->chunks.size(), serial->chunks.size());
    for (size_t i = 0; i < serial->chunks.size(); ++i) {
      ASSERT_EQ(parallel->chunks[i].chunk_id, serial->chunks[i].chunk_id);
      ASSERT_EQ(parallel->chunks[i].positions, serial->chunks[i].positions)
          << "chunk " << i << " round " << round;
    }
    EXPECT_EQ(report.worker_count, 4);
    EXPECT_EQ(report.morsel_count, generated.table->chunk_count());
    EXPECT_FALSE(report.degraded);

    const auto count = ExecuteParallelScanCount(*scanner, options);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, *serial_count);
  }
}

TEST(ParallelScanTest, StrictUnavailableEngineFailsDeterministically) {
  const GeneratedScanTable generated = SmallChunkTable();
  const auto scanner =
      TableScanner::Prepare(generated.table, SpecFor(generated));
  ASSERT_TRUE(scanner.ok());

  // kJit under kStrict on a CPU without AVX-512: every morsel fails, and
  // the morsel runner reports the first chunk's failure no matter which
  // worker hit it first.
  ParallelScanOptions options;
  options.requested = {ScanEngine::kJit, 512};
  options.fallback = FallbackPolicy::kStrict;
  options.threads = 4;
  options.cache = nullptr;
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT compile attempts under TSan are pointless";
#endif
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "needs a CPU where the JIT rung is unavailable";
  }
  const auto result = ExecuteParallelScan(*scanner, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(ParallelScanTest, LadderDemotesPerMorselWithoutChangingOutput) {
  const GeneratedScanTable generated = SmallChunkTable();
  const ScanSpec spec = SpecFor(generated);
  const auto scanner = TableScanner::Prepare(generated.table, spec);
  ASSERT_TRUE(scanner.ok());
  const auto reference = testing::ReferenceScan(*scanner);
  ASSERT_TRUE(reference.ok());

  // Request the deepest static rung with the ladder on. On AVX-512
  // hardware nothing demotes; elsewhere every morsel walks down to a rung
  // that runs. Either way the merged output equals the reference.
  ParallelScanOptions options;
  options.requested = {ScanEngine::kAvx512Fused512, 0};
  options.fallback = FallbackPolicy::kLadder;
  options.threads = 4;
  ExecutionReport report;
  const auto parallel = ExecuteParallelScan(*scanner, options, &report);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(parallel->chunks.size(), reference->chunks.size());
  for (size_t i = 0; i < reference->chunks.size(); ++i) {
    ASSERT_EQ(parallel->chunks[i].positions, reference->chunks[i].positions)
        << "chunk " << i;
  }
  ASSERT_EQ(report.morsel_choices.size(), generated.table->chunk_count());
  for (const EngineChoice& choice : report.morsel_choices) {
    EXPECT_EQ(choice.engine, report.executed.engine);
  }
  EXPECT_EQ(report.degraded,
            report.executed.engine != ScanEngine::kAvx512Fused512);
}

}  // namespace
}  // namespace fts
