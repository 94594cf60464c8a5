// Tests for EXPLAIN / EXPLAIN ANALYZE: parser flags, plan-only routing,
// and the annotated plan's agreement with the query's ExecutionReport.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "fts/common/string_util.h"
#include "fts/db/database.h"
#include "fts/perf/counter_attribution.h"
#include "fts/sql/parser.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"

namespace fts {
namespace {

// Queries without an explicit engine run adaptively, and the first one in
// the process calibrates the cost model; keep that run short.
const bool kFastCalibration = [] {
  setenv("FTS_CALIBRATE_FAST", "1", 1);
  return true;
}();

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScanTableOptions options;
    options.rows = 50000;
    options.selectivities = {0.1, 0.5};
    options.seed = 314;
    // Multiple chunks so the parallel/pruning annotations have structure.
    options.chunk_size = 10000;
    generated_ = MakeScanTable(options);
    ASSERT_TRUE(db_.RegisterTable("tbl", generated_.table).ok());
  }

  Database db_;
  GeneratedScanTable generated_;
};

TEST(ExplainParserTest, ParsesExplainPrefixes) {
  const auto plain = ParseSelect("SELECT COUNT(*) FROM t WHERE a = 1");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
  EXPECT_FALSE(plain->analyze);

  const auto explain = ParseSelect("EXPLAIN SELECT COUNT(*) FROM t");
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->explain);
  EXPECT_FALSE(explain->analyze);

  const auto analyze =
      ParseSelect("explain analyze SELECT c0 FROM t WHERE a = 1");
  ASSERT_TRUE(analyze.ok());
  EXPECT_TRUE(analyze->explain);
  EXPECT_TRUE(analyze->analyze);
  EXPECT_EQ(analyze->ToString().rfind("EXPLAIN ANALYZE SELECT", 0), 0u);

  // ANALYZE without EXPLAIN is not a statement.
  EXPECT_FALSE(ParseSelect("ANALYZE SELECT COUNT(*) FROM t").ok());
}

TEST_F(ExplainAnalyzeTest, ExplainPlansWithoutExecuting) {
  const auto result =
      db_.Query("EXPLAIN SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->explain_text.empty());
  EXPECT_NE(result->explain_text.find("Logical plan"), std::string::npos);
  EXPECT_NE(result->explain_text.find("Physical plan"), std::string::npos);
  // Nothing executed: no count, no rows, default report.
  EXPECT_FALSE(result->count.has_value());
  EXPECT_EQ(result->matched_rows, 0u);
  EXPECT_TRUE(result->execution_report.attempts.empty());
  // ToString returns the rendered plan verbatim.
  EXPECT_EQ(result->ToString(), result->explain_text);
}

TEST_F(ExplainAnalyzeTest, AnalyzeExecutesAndAnnotates) {
  const std::string sql =
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
  const auto result = db_.Query(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->execution_report;
  const std::string& text = result->explain_text;
  ASSERT_FALSE(text.empty());

  // The query really ran and matches ground truth.
  ASSERT_TRUE(result->count.has_value());
  EXPECT_EQ(*result->count, generated_.stage_matches.back());
  EXPECT_FALSE(report.attempts.empty());

  // The rendered actuals agree with the ExecutionReport, field by field.
  EXPECT_NE(text.find(StrFormat("count=%llu",
                                static_cast<unsigned long long>(
                                    *result->count))),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(StrFormat(
                "rows in=%llu",
                static_cast<unsigned long long>(report.rows_scanned))),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(StrFormat(
                "rows scanned=%llu",
                static_cast<unsigned long long>(report.rows_scanned))),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(StrFormat("chunks=%zu", report.chunks_total)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("executed=" + report.executed.ToString()),
            std::string::npos)
      << text;

  // EXPLAIN ANALYZE collects counters. Hardware numbers state what they
  // cover; without a readable PMU the line says so and nothing else.
  if (report.counters.source == CounterSource::kHardware) {
    EXPECT_NE(text.find("counters (hardware"), std::string::npos) << text;
    EXPECT_FALSE(report.counters.coverage.empty());
    EXPECT_NE(text.find(", covers " + report.counters.coverage),
              std::string::npos)
        << text;
  } else {
    EXPECT_EQ(report.counters.source, CounterSource::kUnavailable);
    EXPECT_NE(text.find("counters: unavailable"), std::string::npos) << text;
  }

  // Stage table: COUNT(*) is a pushed-down one-term aggregate — one fused
  // scan stage whose output is the match count, which the trailing
  // `Aggregate [pushdown]` stage takes in.
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages.front().rows_in, report.rows_scanned);
  EXPECT_EQ(report.stages.front().rows_out, *result->count);
  EXPECT_EQ(report.stages.back().label, "Aggregate [pushdown]");
  EXPECT_EQ(report.stages.back().rows_in, *result->count);
}

TEST_F(ExplainAnalyzeTest, AnalyzeShowsEstimatedVersusActualRows) {
  const auto result = db_.Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->execution_report;
  const std::string& text = result->explain_text;

  // No explicit engine in the options: the cost model is active and the
  // model may adapt engines per chunk.
  ASSERT_TRUE(report.model_active) << text;
  EXPECT_TRUE(report.adaptive_engines) << text;

  // Every executed stage renders estimated next to actual rows...
  ASSERT_FALSE(report.stages.empty());
  EXPECT_TRUE(report.stages.front().has_estimate);
  EXPECT_NE(text.find(StrFormat(" (est out=%.0f)",
                                report.stages.front().est_rows_out)),
            std::string::npos)
      << text;
  // ... and the CostModel line carries the whole-scan estimate beside the
  // measured match count.
  EXPECT_NE(text.find("CostModel: on"), std::string::npos) << text;
  EXPECT_NE(text.find(StrFormat(
                "est rows=%.0f actual=%llu", report.est_rows,
                static_cast<unsigned long long>(report.rows_matched))),
            std::string::npos)
      << text;
  // The estimate is a real number, not a placeholder.
  EXPECT_GT(report.est_rows, 0.0);
}

TEST_F(ExplainAnalyzeTest, KillSwitchRendersCostModelOff) {
  setenv("FTS_ADAPTIVE", "0", 1);
  const auto result = db_.Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2");
  unsetenv("FTS_ADAPTIVE");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->execution_report.model_active);
  EXPECT_NE(result->explain_text.find("CostModel: off"), std::string::npos)
      << result->explain_text;
  // The kill switch changes the annotation, never the answer.
  EXPECT_EQ(*result->count, generated_.stage_matches.back());
}

TEST_F(ExplainAnalyzeTest, PlainQueryCollectsNoCounters) {
  const auto result =
      db_.Query("SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->explain_text.empty());
  // Counter collection is opt-in (EXPLAIN ANALYZE turns it on).
  EXPECT_EQ(result->execution_report.counters.source,
            CounterSource::kUnavailable);
}

TEST_F(ExplainAnalyzeTest, AnalyzeProjectionQuery) {
  const auto result = db_.Query(
      "EXPLAIN ANALYZE SELECT c0, c1 FROM tbl WHERE c0 = 5 AND c1 = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& text = result->explain_text;
  EXPECT_NE(text.find("Project"), std::string::npos) << text;
  EXPECT_NE(text.find(StrFormat(
                "actual rows=%llu",
                static_cast<unsigned long long>(result->matched_rows))),
            std::string::npos)
      << text;
  // Projection results still materialize alongside the annotation.
  EXPECT_EQ(result->RowCountOut(), result->matched_rows);
}

TEST_F(ExplainAnalyzeTest, AnalyzeParallelScanReportsWorkers) {
  Database::QueryOptions options;
  options.threads = 4;
  const auto result = db_.Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2",
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->execution_report;
  EXPECT_EQ(report.worker_count, 4);
  EXPECT_GT(report.morsel_count, 0u);
  const std::string& text = result->explain_text;
  EXPECT_NE(text.find(StrFormat("workers=%d morsels=%zu",
                                report.worker_count, report.morsel_count)),
            std::string::npos)
      << text;
  // Every morsel's engine shows up in the mix annotation.
  EXPECT_NE(text.find("engines={"), std::string::npos) << text;
  EXPECT_EQ(*result->count, generated_.stage_matches.back());

  // Counter coverage is host-dependent, but a PMU read on a parallel scan
  // states its morsel/thread coverage and attributes per engine; without
  // a PMU the counters are unavailable.
  if (report.counters.source == CounterSource::kHardware) {
    EXPECT_NE(report.counters.coverage.find("morsels"), std::string::npos);
    EXPECT_GT(report.counters.morsels_measurable, 0u);
    EXPECT_GE(report.counters.morsels_measurable,
              report.counters.morsels_covered);
    EXPECT_FALSE(report.engine_counters.empty());
  } else {
    EXPECT_EQ(report.counters.source, CounterSource::kUnavailable);
    EXPECT_TRUE(report.counters.coverage.empty());
  }
}

// The counter contract of a 2-step plan: its refine step runs as
// position-list morsels that are measured and counted like scan morsels,
// so hardware coverage counts more morsels than the first step ran and
// carries no separate refine-step suffix. Without a PMU nothing is
// measured and the Counters line says `counters: unavailable`.
TEST_F(ExplainAnalyzeTest, AnalyzeCountersCoverRefineMorsels) {
  Database::QueryOptions options;
  options.engine = ScanEngine::kSisdNoVec;
  options.threads = 4;
  const auto result = db_.Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2",
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->execution_report;
  const std::string& text = result->explain_text;
  EXPECT_EQ(*result->count, generated_.stage_matches.back());
  ASSERT_EQ(report.stages.size(), 2u) << text;  // Scan, then refine.
  EXPECT_EQ(text.find("refine steps"), std::string::npos) << text;
  EXPECT_EQ(text.find("simulated"), std::string::npos) << text;
  if (ThreadCounters::ForCurrentThread().available()) {
    EXPECT_EQ(report.counters.source, CounterSource::kHardware) << text;
  }
  if (report.counters.source == CounterSource::kHardware) {
    EXPECT_GT(report.counters.morsels_measurable, report.morsel_count);
    EXPECT_NE(text.find(StrFormat(
                  "covers %llu/%llu morsels",
                  static_cast<unsigned long long>(
                      report.counters.morsels_covered),
                  static_cast<unsigned long long>(
                      report.counters.morsels_measurable))),
              std::string::npos)
        << text;
  } else {
    EXPECT_EQ(report.counters.source, CounterSource::kUnavailable);
    EXPECT_NE(text.find("counters: unavailable\n"), std::string::npos)
        << text;
  }
}

// A 1-thread query runs its morsels inline on the calling thread and
// reports them like any morsel scan: one worker, one morsel per runnable
// chunk. The answer and the scan/pruning accounting match a 4-thread run
// of the same query.
TEST_F(ExplainAnalyzeTest, AnalyzeSingleThreadScanReportsMorsels) {
  const std::string sql =
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
  Database::QueryOptions one_thread;
  one_thread.threads = 1;
  const auto serial = db_.Query(sql, one_thread);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const ExecutionReport& report = serial->execution_report;
  EXPECT_EQ(report.worker_count, 1);
  EXPECT_EQ(report.morsel_count, report.chunks_total - report.chunks_pruned);
  EXPECT_EQ(report.morsel_choices.size(), report.morsel_count);
  const std::string& text = serial->explain_text;
  EXPECT_NE(text.find(StrFormat("parallel: workers=1 morsels=%zu engines={",
                                report.morsel_count)),
            std::string::npos)
      << text;
  if (report.counters.source == CounterSource::kHardware) {
    EXPECT_NE(report.counters.coverage.find("morsels on 1 thread"),
              std::string::npos)
        << report.counters.coverage;
    EXPECT_EQ(report.counters.coverage.find("threads"), std::string::npos)
        << report.counters.coverage;
  }

  Database::QueryOptions four_threads;
  four_threads.threads = 4;
  const auto parallel = db_.Query(sql, four_threads);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(*serial->count, generated_.stage_matches.back());
  EXPECT_EQ(*serial->count, *parallel->count);
  EXPECT_EQ(report.rows_scanned, parallel->execution_report.rows_scanned);
  EXPECT_EQ(report.chunks_pruned, parallel->execution_report.chunks_pruned);
  EXPECT_EQ(report.morsel_count, parallel->execution_report.morsel_count);
}

TEST_F(ExplainAnalyzeTest, AnalyzeReportsZoneMapPruning) {
  // c0 is non-negative in generated tables, so c0 = -1 prunes everything.
  const auto result =
      db_.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE c0 = -1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->execution_report;
  EXPECT_EQ(report.chunks_pruned, report.chunks_total);
  EXPECT_EQ(report.morsel_count, 0u);
  EXPECT_EQ(*result->count, 0u);
  EXPECT_NE(result->explain_text.find(
                StrFormat("pruned=%zu", report.chunks_pruned)),
            std::string::npos)
      << result->explain_text;
}

TEST_F(ExplainAnalyzeTest, AnalyzeMatchesPlainQueryResults) {
  const std::string where = " FROM tbl WHERE c0 = 5 AND c1 = 2";
  const auto plain = db_.Query("SELECT COUNT(*)" + where);
  const auto analyzed = db_.Query("EXPLAIN ANALYZE SELECT COUNT(*)" + where);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(*plain->count, *analyzed->count);
  EXPECT_EQ(plain->execution_report.rows_scanned,
            analyzed->execution_report.rows_scanned);
  EXPECT_EQ(plain->execution_report.chunks_total,
            analyzed->execution_report.chunks_total);
}

// The AggregatePushdown line says which fold each chunk took: the kernel
// loop for a plain aggregate column, positions through the sink for a
// delta column (with the survivor blocks it decoded), and — for a 2-step
// SISD plan, which does not push down — positions over the refined lists.
TEST_F(ExplainAnalyzeTest, AnalyzeShowsWhichFoldEachChunkTook) {
  TableBuilder builder({{"k", DataType::kInt32},
                        {"v_plain", DataType::kInt32},
                        {"v_delta", DataType::kInt32}},
                       /*chunk_size=*/10000);
  builder.SetEncoding(2, ColumnEncoding::kDelta);
  for (int32_t r = 0; r < 50000; ++r) {
    ASSERT_TRUE(
        builder.AppendRow({Value(r % 100), Value(r % 7), Value(r / 3)}).ok());
  }
  ASSERT_TRUE(db_.RegisterTable("enc", builder.Build()).ok());

  const auto kernel = db_.Query(
      "EXPLAIN ANALYZE SELECT SUM(v_plain) FROM enc WHERE k < 50");
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const ExecutionReport& kernel_report = kernel->execution_report;
  EXPECT_TRUE(kernel_report.aggregate_pushdown);
  EXPECT_EQ(kernel_report.agg_kernel_chunks, 5u);
  EXPECT_EQ(kernel_report.agg_positions_chunks, 0u);
  EXPECT_NE(kernel->explain_text.find(
                "AggregatePushdown: yes (rows folded=25000, kernel "
                "chunks=5, positions chunks=0)\n"),
            std::string::npos)
      << kernel->explain_text;

  const auto positions = db_.Query(
      "EXPLAIN ANALYZE SELECT SUM(v_delta) FROM enc WHERE k < 50");
  ASSERT_TRUE(positions.ok()) << positions.status().ToString();
  const ExecutionReport& report = positions->execution_report;
  EXPECT_TRUE(report.aggregate_pushdown);
  EXPECT_EQ(report.agg_kernel_chunks, 0u);
  EXPECT_EQ(report.agg_positions_chunks, 5u);
  // Every 1024-row block holds survivors (k cycles through 0..99).
  EXPECT_EQ(report.agg_delta_blocks, 5u * 10u);
  EXPECT_NE(positions->explain_text.find(
                "AggregatePushdown: yes (rows folded=25000, kernel "
                "chunks=0, positions chunks=5, delta blocks decoded=50)\n"),
            std::string::npos)
      << positions->explain_text;

  Database::QueryOptions sisd;
  sisd.engine = ScanEngine::kSisdNoVec;
  const auto refined = db_.Query(
      "EXPLAIN ANALYZE SELECT SUM(v_delta) FROM enc WHERE k < 50 AND "
      "v_plain > 2",
      sisd);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_FALSE(refined->execution_report.aggregate_pushdown);
  EXPECT_NE(refined->explain_text.find(StrFormat(
                "AggregatePushdown: no (rows folded=%llu, positions "
                "chunks=5, delta blocks decoded=50)\n",
                static_cast<unsigned long long>(refined->matched_rows))),
            std::string::npos)
      << refined->explain_text;
}

}  // namespace
}  // namespace fts
