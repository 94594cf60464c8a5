// Instrumentation-overhead guard: the observability layer must be
// near-free when no trace sink is attached. Compares the same scan with
// tracing globally disabled against tracing enabled but unattached (the
// steady state every query runs in) and fails if the unattached fast path
// costs measurably more than the disabled baseline.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "fts/common/stats.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/db/database.h"
#include "fts/obs/query_log.h"
#include "fts/obs/trace.h"
#include "fts/perf/counter_attribution.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "test_util.h"

namespace fts {
namespace {

TEST(ObsOverheadTest, UnattachedTracingCostsNoMoreThanDisabled) {
  ScanTableOptions options;
  options.rows = 400000;
  options.selectivities = {0.1, 0.5};
  options.seed = 99;
  options.chunk_size = 10000;  // Many chunks: many span construction sites.
  const GeneratedScanTable generated = MakeScanTable(options);

  ScanSpec spec;
  spec.predicates = {
      {"c0", CompareOp::kEq, Value(generated.search_values[0])},
      {"c1", CompareOp::kEq, Value(generated.search_values[1])}};
  const auto scanner = TableScanner::Prepare(generated.table, spec);
  ASSERT_TRUE(scanner.ok());
  const ScanEngine engine = ScanEngineAvailable(ScanEngine::kAvx512Fused512)
                                ? ScanEngine::kAvx512Fused512
                                : ScanEngine::kScalarFused;
  const uint64_t expected = generated.stage_matches.back();

  auto run_once = [&] {
    const auto count =
        ExecuteParallelScanCount(*scanner, testing::StrictOptions({engine, 0}));
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, expected);
  };

  // Interleave the two configurations so clock drift / frequency scaling
  // on a shared host hits both equally.
  constexpr int kReps = 21;
  std::vector<double> disabled_ms, unattached_ms;
  run_once();  // Warm-up outside the timed region.
  for (int rep = 0; rep < kReps; ++rep) {
    obs::SetTracingEnabled(false);
    {
      Stopwatch stopwatch;
      run_once();
      disabled_ms.push_back(stopwatch.ElapsedMillis());
    }
    obs::SetTracingEnabled(true);  // Default state: enabled, no sink.
    {
      Stopwatch stopwatch;
      run_once();
      unattached_ms.push_back(stopwatch.ElapsedMillis());
    }
  }
  obs::SetTracingEnabled(true);

  const double disabled = Median(disabled_ms);
  const double unattached = Median(unattached_ms);
  // The unattached fast path is one relaxed load and a branch per span; a
  // generous 1.5x + 0.5ms envelope keeps this immune to shared-vCPU noise
  // while still catching an accidental clock read or allocation on the
  // no-sink path.
  EXPECT_LT(unattached, disabled * 1.5 + 0.5)
      << "disabled=" << disabled << "ms unattached=" << unattached << "ms";
}

TEST(ObsOverheadTest, AlwaysOnQueryStatsStayUnderOnePercentOfScan) {
  // The query-statistics path runs on EVERY query (FTS_OBS defaults on):
  // one SqlDigest over the statement plus one ring Record. Its per-query
  // cost must stay within 1% of a fig5-style scan, or "always-on" becomes
  // a lie. Interleaves {FTS_OBS=0, scan only} with {FTS_OBS=1, scan +
  // digest + record} so host noise hits both configurations equally.
  ScanTableOptions options;
  options.rows = 400000;
  options.selectivities = {0.1, 0.5};
  options.seed = 77;
  const GeneratedScanTable generated = MakeScanTable(options);

  ScanSpec spec;
  spec.predicates = {
      {"c0", CompareOp::kEq, Value(generated.search_values[0])},
      {"c1", CompareOp::kEq, Value(generated.search_values[1])}};
  const auto scanner = TableScanner::Prepare(generated.table, spec);
  ASSERT_TRUE(scanner.ok());
  const ScanEngine engine = ScanEngineAvailable(ScanEngine::kAvx512Fused512)
                                ? ScanEngine::kAvx512Fused512
                                : ScanEngine::kScalarFused;
  const uint64_t expected = generated.stage_matches.back();
  const std::string sql =
      "SELECT COUNT(*) FROM lineitem_like WHERE c0 = 12345 AND c1 = 678";
  obs::QueryLog log(256);

  auto scan_once = [&] {
    const auto count =
        ExecuteParallelScanCount(*scanner, testing::StrictOptions({engine, 0}));
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, expected);
  };
  auto record_once = [&] {
    if (!obs::ObsEnabled()) return;  // The exact guard Database uses.
    obs::QueryLogEntry entry;
    entry.digest = obs::SqlDigest(sql);
    entry.status = "ok";
    entry.engine = "avx512-fused-512";
    entry.counter_source = "unavailable";
    entry.rows_scanned = options.rows;
    log.Record(std::move(entry));
  };

  constexpr int kReps = 21;
  std::vector<double> off_ms, on_ms;
  scan_once();  // Warm-up outside the timed region.
  for (int rep = 0; rep < kReps; ++rep) {
    ::setenv("FTS_OBS", "0", 1);
    {
      Stopwatch stopwatch;
      scan_once();
      record_once();
      off_ms.push_back(stopwatch.ElapsedMillis());
    }
    ::setenv("FTS_OBS", "1", 1);
    {
      Stopwatch stopwatch;
      scan_once();
      record_once();
      on_ms.push_back(stopwatch.ElapsedMillis());
    }
  }
  ::unsetenv("FTS_OBS");

  EXPECT_EQ(log.total_recorded(), static_cast<uint64_t>(kReps));
  const double off = Median(off_ms);
  const double on = Median(on_ms);
  // 1% relative envelope plus a small absolute floor so a sub-millisecond
  // scan median on a fast host doesn't turn scheduler jitter into a
  // failure; the floor is still far below any real per-query regression
  // (a stray allocation or lock convoy costs multiples of it).
  EXPECT_LT(on, off * 1.01 + 0.05)
      << "FTS_OBS=0 " << off << "ms vs always-on " << on << "ms";
}

TEST(ObsOverheadTest, ExplainAnalyzeCostsAboutTheQuery) {
  // EXPLAIN ANALYZE measures the query that ran — per-morsel PMU regions
  // when the host has a PMU, nothing otherwise — so it must cost about
  // what the plain query costs: no replay or re-scan rides along.
  // Interleaves the two so host noise hits both equally.
  ScanTableOptions options;
  options.rows = 400000;
  options.selectivities = {0.1, 0.5};
  options.seed = 99;
  options.chunk_size = 10000;
  const GeneratedScanTable generated = MakeScanTable(options);
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", generated.table).ok());
  Database::QueryOptions query_options;
  query_options.engine = ScanEngineAvailable(ScanEngine::kAvx512Fused512)
                             ? ScanEngine::kAvx512Fused512
                             : ScanEngine::kScalarFused;
  const std::string sql =
      StrFormat("SELECT COUNT(*) FROM t WHERE c0 = %d AND c1 = %d",
                generated.search_values[0], generated.search_values[1]);
  const uint64_t expected = generated.stage_matches.back();

  auto timed = [&](const std::string& statement) {
    Stopwatch stopwatch;
    const auto result = db.Query(statement, query_options);
    const double millis = stopwatch.ElapsedMillis();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      EXPECT_EQ(result->count.value_or(0), expected);
    }
    return millis;
  };

  constexpr int kReps = 21;
  std::vector<double> plain_ms, explain_ms;
  timed(sql);  // Warm-up outside the timed region.
  timed("EXPLAIN ANALYZE " + sql);
  for (int rep = 0; rep < kReps; ++rep) {
    plain_ms.push_back(timed(sql));
    explain_ms.push_back(timed("EXPLAIN ANALYZE " + sql));
  }
  const double plain = Median(plain_ms);
  const double explain = Median(explain_ms);
  EXPECT_LT(explain, plain * 1.5 + 0.5)
      << "plain=" << plain << "ms explain analyze=" << explain << "ms";
}

TEST(ObsOverheadTest, DisabledCounterRegionsAreOneBranch) {
  // Steady state: counters are only collected under EXPLAIN ANALYZE, so
  // every per-morsel / per-rung CounterRegion on a plain query must be a
  // single branch. 1M disabled regions in well under a second.
  constexpr int kRegions = 1'000'000;
  Stopwatch stopwatch;
  for (int i = 0; i < kRegions; ++i) {
    CounterRegion region(/*enabled=*/false);
  }
  EXPECT_LT(stopwatch.ElapsedMillis(), 500.0);
}

TEST(ObsOverheadTest, SpanConstructionIsCheapWhenUnattached) {
  ASSERT_EQ(obs::ActiveTraceSink(), nullptr);
  obs::SetTracingEnabled(true);
  // 1M unattached spans must complete in well under a second; a clock
  // read or allocation sneaking into the no-sink constructor blows this
  // budget immediately.
  constexpr int kSpans = 1'000'000;
  Stopwatch stopwatch;
  for (int i = 0; i < kSpans; ++i) {
    obs::TraceSpan span("noop", "test");
  }
  EXPECT_LT(stopwatch.ElapsedMillis(), 500.0);
}

}  // namespace
}  // namespace fts
