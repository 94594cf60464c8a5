#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fts/common/cpu_info.h"
#include "fts/common/fault_injection.h"
#include "fts/db/database.h"
#include "fts/jit/compiler_driver.h"
#include "fts/jit/jit_cache.h"
#include "fts/storage/data_generator.h"

namespace fts {
namespace {

constexpr char kCountSql[] =
    "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
constexpr char kProjectSql[] =
    "SELECT c0, c1 FROM tbl WHERE c0 = 5 AND c1 = 2";

// End-to-end resilience: with any single JIT fault injected, a kJit query
// under the default ladder policy must still succeed with results
// bit-identical to the SISD reference, and the demotion must be visible in
// QueryResult::execution_report.
class DegradationTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (FaultInjection::Instance().AnyArmed()) {
      GTEST_SKIP() << "fault injection armed via FTS_FAULT; this suite "
                      "manages its own faults";
    }
    // The global cache may hold modules, poisoned signatures, or a sticky
    // compiler-unavailable latch from other suites (or leave them for
    // them) — isolate both directions.
    GlobalJitCache().Clear();
    ScanTableOptions options;
    options.rows = 20000;
    options.selectivities = {0.2, 0.3};
    options.seed = 1234;
    generated_ = MakeScanTable(options);
    ASSERT_TRUE(db_.RegisterTable("tbl", generated_.table).ok());
  }

  void TearDown() override { GlobalJitCache().Clear(); }

  // A cold JIT query runs tier 0 while its compile is queued, so it shows
  // neither the compiled operator nor a compile failure. Runs `sql` once
  // per compile attempt the cache allows, waiting for each compile, so the
  // signature ends compiled or poisoned before a test asserts.
  void SettleJit(const std::string& sql,
                 const Database::QueryOptions& options) const {
    for (int i = 0; i < GlobalJitCache().options().max_compile_attempts;
         ++i) {
      ASSERT_TRUE(db_.Query(sql, options).ok()) << sql;
      GlobalJitCache().WaitForPendingCompiles();
    }
  }

  StatusOr<QueryResult> SisdReference(const std::string& sql) const {
    Database::QueryOptions options;
    options.engine = ScanEngine::kSisdNoVec;
    return db_.Query(sql, options);
  }

  Database db_;
  GeneratedScanTable generated_;
};

TEST_P(DegradationTest, QuerySurvivesFaultWithIdenticalResults) {
  const auto reference_count = SisdReference(kCountSql);
  const auto reference_rows = SisdReference(kProjectSql);
  ASSERT_TRUE(reference_count.ok());
  ASSERT_TRUE(reference_rows.ok());

  ScopedFault fault(GetParam());

  Database::QueryOptions options;
  options.engine = ScanEngine::kJit;
  options.fallback = FallbackPolicy::kLadder;
  SettleJit(kCountSql, options);
  SettleJit(kProjectSql, options);

  const auto count_result = db_.Query(kCountSql, options);
  ASSERT_TRUE(count_result.ok())
      << GetParam() << ": " << count_result.status().ToString();
  EXPECT_EQ(*count_result->count, *reference_count->count);

  const ExecutionReport& report = count_result->execution_report;
  EXPECT_EQ(report.requested.engine, ScanEngine::kJit);
  EXPECT_TRUE(report.degraded) << report.ToString();
  EXPECT_NE(report.executed.engine, ScanEngine::kJit) << report.ToString();
  // At least one attempt failed before the rung that succeeded, and the
  // failure reason was recorded.
  const bool has_failed_attempt = std::any_of(
      report.attempts.begin(), report.attempts.end(),
      [](const EngineAttempt& attempt) { return !attempt.status.ok(); });
  EXPECT_TRUE(has_failed_attempt) << report.ToString();

  const auto rows_result = db_.Query(kProjectSql, options);
  ASSERT_TRUE(rows_result.ok())
      << GetParam() << ": " << rows_result.status().ToString();
  EXPECT_EQ(rows_result->RowCountOut(), reference_rows->RowCountOut());
  EXPECT_EQ(rows_result->ToString(rows_result->RowCountOut()),
            reference_rows->ToString(reference_rows->RowCountOut()));
  EXPECT_TRUE(rows_result->execution_report.degraded);
}

INSTANTIATE_TEST_SUITE_P(
    AllJitFaults, DegradationTest,
    ::testing::Values(kFaultJitCompilerMissing, kFaultJitCompileError,
                      kFaultJitCompileTimeout, kFaultJitDlopenFail,
                      kFaultJitSymbolMissing),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

using DegradationFixture = DegradationTest;

TEST_P(DegradationFixture, StrictPolicyFailsFast) {
  ScopedFault fault(GetParam());
  Database::QueryOptions options;
  options.engine = ScanEngine::kJit;
  options.fallback = FallbackPolicy::kStrict;
  const auto result = db_.Query(kCountSql, options);
  EXPECT_FALSE(result.ok())
      << GetParam() << ": strict policy must surface the engine failure";
}

INSTANTIATE_TEST_SUITE_P(
    AllJitFaultsStrict, DegradationFixture,
    ::testing::Values(kFaultJitCompilerMissing, kFaultJitCompileError,
                      kFaultJitCompileTimeout, kFaultJitDlopenFail,
                      kFaultJitSymbolMissing),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// Control: with no fault armed and AVX-512 present, the ladder must not
// demote anything — the JIT path stays the JIT path.
class NoFaultTest : public DegradationTest {};

TEST_P(NoFaultTest, JitRunsUndegradedWithoutFaults) {
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  Database::QueryOptions options;
  options.engine = ScanEngine::kJit;
  options.fallback = FallbackPolicy::kLadder;
  SettleJit(kCountSql, options);
  const auto result = db_.Query(kCountSql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto reference = SisdReference(kCountSql);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*result->count, *reference->count);

  const ExecutionReport& report = result->execution_report;
  EXPECT_FALSE(report.degraded) << report.ToString();
  EXPECT_EQ(report.executed.engine, ScanEngine::kJit) << report.ToString();
  EXPECT_EQ(report.executed.jit_register_bits, 512);
}

INSTANTIATE_TEST_SUITE_P(Control, NoFaultTest, ::testing::Values("none"),
                         [](const ::testing::TestParamInfo<const char*>&) {
                           return std::string("NoFault");
                         });

}  // namespace
}  // namespace fts
