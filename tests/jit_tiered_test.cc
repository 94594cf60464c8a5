// Tiered JIT contract: a JIT scan on a cold cache never waits for a
// compile. Its morsels run on the best static fused engine (tier 0) while
// the cache's worker compiles, the result is byte-identical to the
// reference, and tier 0 is a choice, not a degradation. Once the compile
// lands, every morsel runs the compiled operator. Only kStrict waits, and
// its wait honours the query's deadline.
//
// The scan-level cases pass their own cache (ParallelScanOptions::cache)
// whose compiler is a script that sleeps 10 s. The Database-level case
// runs in a child process whose process-wide cache gets that compiler
// through FTS_JIT_CXX.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/fault_injection.h"
#include "fts/common/query_context.h"
#include "fts/common/string_util.h"
#include "fts/cost/cost_profile.h"
#include "fts/db/database.h"
#include "fts/exec/parallel_scan.h"
#include "fts/jit/compiler_driver.h"
#include "fts/jit/jit_cache.h"
#include "fts/storage/data_generator.h"
#include "test_util.h"

namespace fts {
namespace {

// A scan shape: the positions scan (projections, top-k) or an aggregate
// fold. Integer aggregates keep "byte-identical" exact across engines.
struct Shape {
  const char* name;
  std::vector<AggregateSpec> aggregates;
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape>& shapes = *new std::vector<Shape>{
      {"positions", {}},
      {"COUNT(*)", {{AggOp::kCount, ""}}},
      {"SUM(c1), MAX(c1)", {{AggOp::kSum, "c1"}, {AggOp::kMax, "c1"}}},
  };
  return shapes;
}

// One execution of `scanner` under `options`, rendered to bytes: every
// chunk's matching positions, or the folded aggregates.
StatusOr<std::string> Execute(const TableScanner& scanner,
                              const ParallelScanOptions& options,
                              ExecutionReport* report) {
  std::string bytes;
  if (scanner.num_agg_terms() == 0) {
    FTS_ASSIGN_OR_RETURN(const TableMatches matches,
                         ExecuteParallelScan(scanner, options, report));
    for (const ChunkMatches& chunk : matches.chunks) {
      for (const auto position : chunk.positions) {
        bytes += StrFormat("%u,", static_cast<unsigned>(position));
      }
      bytes += "|";
    }
    return bytes;
  }
  FTS_ASSIGN_OR_RETURN(const TableScanner::AggResult result,
                       ExecuteParallelScanAggregate(scanner, options, report));
  bytes = StrFormat("matched=%llu",
                    static_cast<unsigned long long>(result.matched));
  for (const AggAccumulator& acc : result.accumulators) {
    bytes += StrFormat(" {%llu %llu %lld %lld}",
                       static_cast<unsigned long long>(acc.count),
                       static_cast<unsigned long long>(acc.sum_bits),
                       static_cast<long long>(acc.min_i),
                       static_cast<long long>(acc.max_i));
  }
  return bytes;
}

ParallelScanOptions LadderJit(JitCache* cache, int threads) {
  ParallelScanOptions options;
  options.requested = {ScanEngine::kJit, 512};
  options.threads = threads;
  options.cache = cache;
  return options;
}

std::string TierZeroMix(size_t morsels) {
  return StrFormat("engines={%s x%zu}",
                   EngineChoice{cost::BestFusedEngine(), 0}.ToString().c_str(),
                   morsels);
}

bool JitCompilerWorks() {
  return JitCompiler()
      .Compile("extern \"C\" int fts_probe() { return 0; }", "fts_probe")
      .ok();
}

class TieredJitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (FaultInjection::Instance().AnyArmed()) {
      GTEST_SKIP() << "fault injection armed via FTS_FAULT; this suite "
                      "needs a working compiler path";
    }
    if (::getenv("FTS_JIT_CXX") != nullptr) {
      GTEST_SKIP() << "FTS_JIT_CXX overrides the compiler under test";
    }
    if (!GetCpuFeatures().HasFusedScanAvx512()) {
      GTEST_SKIP() << "AVX-512 not available";
    }
    work_dir_ = ::testing::TempDir() + "fts_jit_tiered";
    ::mkdir(work_dir_.c_str(), 0755);
    // A "compiler" that sleeps far longer than any scan may take.
    sleepy_cxx_ = work_dir_ + "/sleepy_cxx.sh";
    std::ofstream out(sleepy_cxx_);
    out << "#!/bin/sh\nsleep 10\n";
    out.close();
    ::chmod(sleepy_cxx_.c_str(), 0755);

    ScanTableOptions options;
    options.rows = 200000;
    options.chunk_size = 65536;  // 4 chunks: 4 morsels per scan.
    options.selectivities = {0.2, 0.5};
    options.seed = 19;
    generated_ = MakeScanTable(options);
  }

  JitCacheOptions SleepyOptions() const {
    JitCacheOptions options;
    options.compiler.compiler = sleepy_cxx_;
    options.compiler.work_dir = work_dir_;
    return options;
  }

  StatusOr<TableScanner> Prepare(const Shape& shape) const {
    ScanSpec spec;
    spec.predicates = {
        {"c0", CompareOp::kEq, Value(generated_.search_values[0])},
        {"c1", CompareOp::kEq, Value(generated_.search_values[1])}};
    spec.aggregates = shape.aggregates;
    return TableScanner::Prepare(generated_.table, spec);
  }

  static std::string Reference(const TableScanner& scanner) {
    const auto bytes = Execute(
        scanner, testing::StrictOptions({ScanEngine::kSisdNoVec, 0}),
        nullptr);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? *bytes : "";
  }

  std::string work_dir_;
  std::string sleepy_cxx_;
  GeneratedScanTable generated_;
};

TEST_F(TieredJitTest, ColdScansRunTierZeroWhileTheCompilerSleeps) {
  JitCache cache(SleepyOptions());
  for (const int threads : {1, 4}) {
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(StrFormat("threads=%d: %s", threads, shape.name));
      const auto scanner = Prepare(shape);
      ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();

      ExecutionReport report;
      const auto started = std::chrono::steady_clock::now();
      const auto bytes = Execute(*scanner, LadderJit(&cache, threads), &report);
      const auto elapsed = std::chrono::steady_clock::now() - started;
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_LT(elapsed, std::chrono::seconds(1));
      EXPECT_EQ(*bytes, Reference(*scanner));

      EXPECT_FALSE(report.degraded) << report.ToString();
      ASSERT_EQ(report.morsel_count, 4u);
      for (const EngineChoice& choice : report.morsel_choices) {
        EXPECT_EQ(choice.engine, cost::BestFusedEngine()) << report.ToString();
      }
      const std::string text = report.ToString();
      EXPECT_NE(text.find(TierZeroMix(4)), std::string::npos) << text;
      EXPECT_EQ(text.find("demoted"), std::string::npos) << text;
    }
  }
  // Three signatures (positions, COUNT fold, SUM/MAX fold), each queued
  // exactly once however many morsels and scans asked for it.
  const JitCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.pending_lookups, stats.misses);
}

TEST_F(TieredJitTest, StrictWaitHonoursTheDeadline) {
  JitCache cache(SleepyOptions());
  const auto scanner = Prepare(Shapes()[1]);
  ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
  const std::shared_ptr<QueryContext> context = QueryContext::Create();
  context->SetDeadlineMillis(200);
  ParallelScanOptions options = testing::JitOptions(512, &cache);
  options.context = context.get();
  const auto started = std::chrono::steady_clock::now();
  const auto bytes = Execute(*scanner, options, nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kDeadlineExceeded)
      << bytes.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));  // Not the 10 s compile.
}

TEST_F(TieredJitTest, EveryMorselRunsJitOnceTheCompileLands) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!JitCompilerWorks()) GTEST_SKIP() << "no usable JIT compiler";
  JitCache cache;
  for (const Shape& shape : Shapes()) {
    const auto scanner = Prepare(shape);
    ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
    const auto cold = Execute(*scanner, LadderJit(&cache, 1), nullptr);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(*cold, Reference(*scanner)) << shape.name;
  }
  cache.WaitForPendingCompiles();
  EXPECT_EQ(cache.size(), 3u);

  for (const int threads : {1, 4}) {
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(StrFormat("threads=%d: %s", threads, shape.name));
      const auto scanner = Prepare(shape);
      ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
      ExecutionReport report;
      const auto bytes = Execute(*scanner, LadderJit(&cache, threads), &report);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_EQ(*bytes, Reference(*scanner));
      EXPECT_FALSE(report.degraded) << report.ToString();
      EXPECT_EQ(report.executed.engine, ScanEngine::kJit) << report.ToString();
      ASSERT_EQ(report.morsel_count, 4u);
      for (const EngineChoice& choice : report.morsel_choices) {
        EXPECT_EQ(choice, (EngineChoice{ScanEngine::kJit, 512}))
            << report.ToString();
      }
      EXPECT_EQ(report.jit_cache_hits, report.morsel_count);
      EXPECT_EQ(report.jit_cache_misses, 0u);
    }
  }
}

TEST_F(TieredJitTest, StrictWaitsAndRunsTheCompiledOperator) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!JitCompilerWorks()) GTEST_SKIP() << "no usable JIT compiler";
  JitCache cache;
  const auto scanner = Prepare(Shapes()[1]);
  ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
  ParallelScanOptions options = testing::JitOptions(512, &cache);
  options.threads = 2;
  ExecutionReport report;
  const auto bytes = Execute(*scanner, options, &report);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, Reference(*scanner));
  for (const EngineChoice& choice : report.morsel_choices) {
    EXPECT_EQ(choice, (EngineChoice{ScanEngine::kJit, 512}));
  }
  EXPECT_EQ(report.jit_cache_misses, 1u);
  EXPECT_GT(report.jit_compile_millis, 0.0);
}

// Database end to end: cold JIT COUNT, SUM and top-k queries return at
// once, byte-identical, undegraded, and EXPLAIN ANALYZE names the tier-0
// mix and the queued compile. The child process exits with the compiles
// still queued; its exit stops the worker.
TEST_F(TieredJitTest, ColdDatabaseQueriesDoNotWaitForTheCompiler) {
  const char* const queries[] = {
      "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2",
      "SELECT SUM(c1), MAX(c1) FROM tbl WHERE c0 = 5",
      "SELECT c0, c1 FROM tbl WHERE c0 = 5 ORDER BY c1 DESC LIMIT 10",
  };
  // Threadsafe style re-executes the test binary, so the child's
  // process-wide cache is created fresh, with the sleeping compiler.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("FTS_JIT_CXX", sleepy_cxx_.c_str(), 1);
        ::setenv("TMPDIR", work_dir_.c_str(), 1);
        const auto fail = [](const std::string& message) {
          std::fprintf(stderr, "%s\n", message.c_str());
          std::_Exit(1);
        };
        Database db;
        if (!db.RegisterTable("tbl", generated_.table).ok()) fail("register");
        Database::QueryOptions jit;
        jit.engine = ScanEngine::kJit;
        Database::QueryOptions reference;
        reference.engine = ScanEngine::kSisdNoVec;

        // First, so that it is the query that queues the COUNT compile.
        const auto explain =
            db.Query(std::string("EXPLAIN ANALYZE ") + queries[0], jit);
        if (!explain.ok()) fail(explain.status().ToString());
        const std::string& text = explain->explain_text;
        if (text.find(TierZeroMix(4)) == std::string::npos ||
            text.find("jit: cache 0 hit, 1 compile queued") ==
                std::string::npos) {
          fail(text);
        }

        for (const int threads : {1, 4}) {
          for (const char* sql : queries) {
            jit.threads = threads;
            const auto want = db.Query(sql, reference);
            const auto started = std::chrono::steady_clock::now();
            const auto have = db.Query(sql, jit);
            const auto elapsed = std::chrono::steady_clock::now() - started;
            const std::string what = StrFormat("threads=%d %s: ", threads, sql);
            if (!want.ok() || !have.ok()) fail(what + "query failed");
            if (elapsed > std::chrono::seconds(1)) fail(what + "waited");
            if (have->count != want->count ||
                have->ToString(have->RowCountOut()) !=
                    want->ToString(want->RowCountOut())) {
              fail(what + "results differ");
            }
            const ExecutionReport& report = have->execution_report;
            const std::string rendered = report.ToString();
            if (report.degraded ||
                rendered.find(TierZeroMix(report.morsel_count)) ==
                    std::string::npos ||
                rendered.find("demoted") != std::string::npos) {
              fail(what + rendered);
            }
          }
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace fts
