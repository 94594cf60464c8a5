// Pruning-semantics tests: a zone-map-pruned scan must be byte-identical
// to the unpruned scan (PrepareOptions{use_zone_maps = false}) on
// clustered, uniform, and adversarial all-boundary data, for every engine
// and operator — and ExecutionReport must surface the pruning on both the
// serial and the morsel-parallel execution paths.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "fts/db/database.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"
#include "test_util.h"

namespace fts {
namespace {

constexpr ScanEngine kStaticEngines[] = {
    ScanEngine::kSisdNoVec,     ScanEngine::kSisdAutoVec,
    ScanEngine::kScalarFused,   ScanEngine::kAvx2Fused128,
    ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
    ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise,
};

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

enum class Encoding { kPlain, kDictionary, kBitPacked };

TablePtr BuildInt32Table(const std::vector<int32_t>& values,
                         size_t chunk_size, Encoding encoding) {
  TableBuilder builder({{"c0", DataType::kInt32}}, chunk_size);
  if (encoding == Encoding::kDictionary) builder.SetDictionaryEncoded(0);
  if (encoding == Encoding::kBitPacked) builder.SetBitPacked(0);
  for (const int32_t v : values) {
    FTS_CHECK(builder.AppendRow({Value(v)}).ok());
  }
  return builder.Build();
}

bool Matches(CompareOp op, int32_t row, int32_t v) {
  switch (op) {
    case CompareOp::kEq: return row == v;
    case CompareOp::kNe: return row != v;
    case CompareOp::kLt: return row < v;
    case CompareOp::kLe: return row <= v;
    case CompareOp::kGt: return row > v;
    case CompareOp::kGe: return row >= v;
  }
  __builtin_unreachable();
}

uint64_t BruteCount(const std::vector<int32_t>& values, CompareOp op,
                    int32_t v) {
  uint64_t count = 0;
  for (const int32_t row : values) count += Matches(op, row, v);
  return count;
}

void ExpectSameMatches(const TableMatches& pruned,
                       const TableMatches& unpruned, const char* what) {
  ASSERT_EQ(pruned.chunks.size(), unpruned.chunks.size()) << what;
  for (size_t i = 0; i < pruned.chunks.size(); ++i) {
    EXPECT_EQ(pruned.chunks[i].chunk_id, unpruned.chunks[i].chunk_id)
        << what << " chunk " << i;
    ASSERT_EQ(pruned.chunks[i].positions, unpruned.chunks[i].positions)
        << what << " chunk " << i;
  }
}

// Runs `spec` pruned and unpruned through every available static engine and
// checks byte-identical output plus the brute-force count.
void CheckPrunedEqualsUnpruned(const TablePtr& table,
                               const std::vector<int32_t>& values,
                               const ScanSpec& spec, uint64_t expect_count) {
  const auto pruned = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  const auto unpruned = TableScanner::Prepare(
      table, spec, TableScanner::PrepareOptions{.use_zone_maps = false});
  ASSERT_TRUE(unpruned.ok()) << unpruned.status().ToString();
  // Note: the unpruned scanner can still report pruning on dictionary
  // encodings — per-chunk dictionary translation disproves or drops
  // predicates on its own, with zone maps switched off entirely.

  for (const ScanEngine engine : kStaticEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const std::string what =
        std::string(ScanEngineToString(engine)) + " " + spec.ToString();
    const ParallelScanOptions options = testing::StrictOptions({engine, 0});
    const auto with = ExecuteParallelScan(*pruned, options);
    const auto without = ExecuteParallelScan(*unpruned, options);
    ASSERT_TRUE(with.ok()) << what << ": " << with.status().ToString();
    ASSERT_TRUE(without.ok()) << what << ": " << without.status().ToString();
    ExpectSameMatches(*with, *without, what.c_str());
    EXPECT_EQ(with->TotalMatches(), expect_count) << what;
    const auto count = ExecuteParallelScanCount(*pruned, options);
    ASSERT_TRUE(count.ok()) << what;
    EXPECT_EQ(*count, expect_count) << what;
  }
  (void)values;
}

std::vector<int32_t> ClusteredValues(size_t rows) {
  std::vector<int32_t> values(rows);
  for (size_t i = 0; i < rows; ++i) values[i] = static_cast<int32_t>(i);
  return values;
}

// Every chunk holds the identical value set 0..chunk_size-1, so zone-map
// pruning is all-or-nothing: no predicate can skip some chunks but not
// others.
std::vector<int32_t> UniformValues(size_t rows, size_t chunk_size) {
  std::vector<int32_t> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    values[i] = static_cast<int32_t>(i % chunk_size);
  }
  return values;
}

TEST(ZonePruningTest, ClusteredDataIdenticalForEveryOpAndEncoding) {
  constexpr size_t kRows = 8000;
  constexpr size_t kChunk = 1000;
  const std::vector<int32_t> values = ClusteredValues(kRows);
  for (const Encoding encoding :
       {Encoding::kPlain, Encoding::kDictionary, Encoding::kBitPacked}) {
    const TablePtr table = BuildInt32Table(values, kChunk, encoding);
    ASSERT_EQ(table->chunk_count(), kRows / kChunk);
    // Probe values sitting exactly on chunk boundaries, mid-chunk, and
    // outside the data entirely.
    for (const int32_t v : {0, 999, 1000, 2500, 7999, 8000, -1}) {
      for (const CompareOp op : kAllOps) {
        ScanSpec spec;
        spec.predicates = {{"c0", op, Value(v)}};
        CheckPrunedEqualsUnpruned(table, values, spec,
                                  BruteCount(values, op, v));
      }
    }
  }
}

TEST(ZonePruningTest, ClusteredRangePrunesAndDropsStages) {
  constexpr size_t kRows = 8000;
  const std::vector<int32_t> values = ClusteredValues(kRows);
  const TablePtr table = BuildInt32Table(values, 1000, Encoding::kPlain);
  // [2000, 2999] covers chunk 2 exactly: both conjuncts are tautological
  // there and disproved everywhere else.
  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kGe, Value(int32_t{2000})},
                     {"c0", CompareOp::kLe, Value(int32_t{2999})}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());
  EXPECT_EQ(scanner->pruning().chunks_total, 8u);
  EXPECT_EQ(scanner->pruning().chunks_pruned, 7u);
  EXPECT_EQ(scanner->pruning().stages_dropped, 2u);
  EXPECT_GT(scanner->pruning().bytes_skipped, 0u);
  ASSERT_TRUE(scanner->chunk_plans()[2].stages.empty());
  EXPECT_FALSE(scanner->chunk_plans()[2].impossible);
  CheckPrunedEqualsUnpruned(table, values, spec, 1000);
}

TEST(ZonePruningTest, UniformDataPrunesAllOrNothing) {
  constexpr size_t kRows = 8000;
  const std::vector<int32_t> values = UniformValues(kRows, 1000);
  const TablePtr table = BuildInt32Table(values, 1000, Encoding::kPlain);
  for (const int32_t v : {-1, 0, 500, 999, 1000}) {
    for (const CompareOp op : kAllOps) {
      ScanSpec spec;
      spec.predicates = {{"c0", op, Value(v)}};
      const auto scanner = TableScanner::Prepare(table, spec);
      ASSERT_TRUE(scanner.ok());
      // Identical chunks mean identical zone fates: either every chunk is
      // disproved (e.g. c0 < 0) or none is. Partial pruning here would be
      // a correctness bug.
      const size_t pruned = scanner->pruning().chunks_pruned;
      EXPECT_TRUE(pruned == 0 || pruned == table->chunk_count())
          << spec.ToString() << " pruned=" << pruned;
      // Interior probes must not prune at all.
      if (v == 500) {
        EXPECT_EQ(pruned, 0u) << spec.ToString();
      }
      CheckPrunedEqualsUnpruned(table, values, spec,
                                BruteCount(values, op, v));
    }
  }
}

// Adversarial: every value sits on a type boundary and every predicate
// probes exactly those boundaries — the surface where an off-by-one in
// ClassifyZone silently drops or duplicates rows.
TEST(ZonePruningTest, AllBoundaryDataEveryOp) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  std::vector<int32_t> values;
  for (size_t chunk = 0; chunk < 6; ++chunk) {
    const int32_t v = (chunk % 2 == 0) ? kMin : kMax;
    for (size_t r = 0; r < 100; ++r) values.push_back(v);
  }
  const TablePtr table = BuildInt32Table(values, 100, Encoding::kPlain);
  ASSERT_EQ(table->chunk_count(), 6u);
  for (const int32_t v : {kMin, kMax, 0}) {
    for (const CompareOp op : kAllOps) {
      ScanSpec spec;
      spec.predicates = {{"c0", op, Value(v)}};
      CheckPrunedEqualsUnpruned(table, values, spec,
                                BruteCount(values, op, v));
    }
  }
}

// A NaN in a float chunk invalidates its zone map; predicates over such a
// column must scan every chunk (no pruning) and still agree with the
// unpruned plan.
TEST(ZonePruningTest, NaNDataDisablesPruningSoundly) {
  // AppendRow's exact-representability cast rejects NaN, so attach
  // prebuilt columns chunk by chunk (the bulk-ingest path).
  TableBuilder builder({{"f", DataType::kFloat64}}, 50);
  for (int chunk = 0; chunk < 4; ++chunk) {
    AlignedVector<double> values(50);
    for (int r = 0; r < 50; ++r) {
      values[r] =
          (r == 7) ? std::nan("") : static_cast<double>(chunk * 50 + r);
    }
    FTS_CHECK(builder
                  .AddChunk({std::make_shared<ValueColumn<double>>(
                      std::move(values))})
                  .ok());
  }
  const TablePtr table = builder.Build();
  ASSERT_EQ(table->chunk_count(), 4u);
  for (const CompareOp op : kAllOps) {
    ScanSpec spec;
    spec.predicates = {{"f", op, Value(100.0)}};
    const auto pruned = TableScanner::Prepare(table, spec);
    ASSERT_TRUE(pruned.ok());
    EXPECT_EQ(pruned->pruning().chunks_pruned, 0u);
    EXPECT_EQ(pruned->pruning().stages_dropped, 0u);
    const auto unpruned = TableScanner::Prepare(
        table, spec, TableScanner::PrepareOptions{.use_zone_maps = false});
    ASSERT_TRUE(unpruned.ok());
    for (const ScanEngine engine :
         {ScanEngine::kSisdNoVec, ScanEngine::kScalarFused}) {
      const ParallelScanOptions options = testing::StrictOptions({engine, 0});
      const auto with = ExecuteParallelScan(*pruned, options);
      const auto without = ExecuteParallelScan(*unpruned, options);
      ASSERT_TRUE(with.ok() && without.ok());
      ExpectSameMatches(*with, *without, spec.ToString().c_str());
    }
  }
}

// The morsel-parallel executor prunes chunks BEFORE creating morsels: the
// result still has one (possibly empty) entry per chunk in chunk order,
// and only runnable chunks become morsels.
TEST(ZonePruningTest, ParallelScanPrunesBeforeMorselCreation) {
  const std::vector<int32_t> values = ClusteredValues(8000);
  const TablePtr table = BuildInt32Table(values, 1000, Encoding::kPlain);
  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kGe, Value(int32_t{2000})},
                     {"c0", CompareOp::kLe, Value(int32_t{2999})}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());

  for (const int threads : {1, 2, 4}) {
    ParallelScanOptions options;
    options.requested = {ScanEngine::kScalarFused, 0};
    options.threads = threads;
    ExecutionReport report;
    const auto result = ExecuteParallelScan(*scanner, options, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->TotalMatches(), 1000u);
    ASSERT_EQ(result->chunks.size(), 8u);
    for (ChunkId chunk_id = 0; chunk_id < 8; ++chunk_id) {
      EXPECT_EQ(result->chunks[chunk_id].chunk_id, chunk_id);
      EXPECT_EQ(result->chunks[chunk_id].positions.size(),
                chunk_id == 2 ? 1000u : 0u);
    }
    // One runnable chunk -> one morsel, and the scheduler stays inline.
    EXPECT_EQ(report.morsel_count, 1u);
    EXPECT_EQ(report.worker_count, 1);
    EXPECT_EQ(report.chunks_total, 8u);
    EXPECT_EQ(report.chunks_pruned, 7u);
    EXPECT_EQ(report.stages_dropped, 2u);
    EXPECT_GT(report.bytes_skipped, 0u);

    ExecutionReport count_report;
    const auto count = ExecuteParallelScanCount(*scanner, options,
                                                &count_report);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 1000u);
    EXPECT_EQ(count_report.chunks_pruned, 7u);
  }
}

// When the zone maps disprove every chunk, the parallel path must succeed
// with zero morsels and an empty result.
TEST(ZonePruningTest, ParallelScanAllChunksPruned) {
  const std::vector<int32_t> values = ClusteredValues(4000);
  const TablePtr table = BuildInt32Table(values, 1000, Encoding::kPlain);
  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kGt, Value(int32_t{100000})}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());
  ParallelScanOptions options;
  options.requested = {ScanEngine::kScalarFused, 0};
  options.threads = 4;
  ExecutionReport report;
  const auto result = ExecuteParallelScan(*scanner, options, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalMatches(), 0u);
  EXPECT_EQ(report.morsel_count, 0u);
  EXPECT_EQ(report.worker_count, 1);
  EXPECT_EQ(report.chunks_pruned, 4u);
  EXPECT_EQ(report.chunks_total, 4u);
}

// End-to-end: QueryResult::execution_report carries the pruning counters on
// the serial (threads = 1) and the morsel-parallel (threads > 1) paths.
TEST(ZonePruningTest, QueryReportRecordsPruningSerialAndParallel) {
  Database db;
  ASSERT_TRUE(
      db.RegisterTable("t", BuildInt32Table(ClusteredValues(8000), 1000,
                                            Encoding::kPlain))
          .ok());
  for (const int threads : {1, 4}) {
    Database::QueryOptions options;
    options.threads = threads;
    const auto result = db.Query(
        "SELECT COUNT(*) FROM t WHERE c0 >= 2000 AND c0 <= 2999", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->count.has_value());
    EXPECT_EQ(*result->count, 1000u);
    const ExecutionReport& report = result->execution_report;
    EXPECT_EQ(report.chunks_total, 8u) << "threads=" << threads;
    EXPECT_EQ(report.chunks_pruned, 7u) << "threads=" << threads;
    EXPECT_EQ(report.stages_dropped, 2u) << "threads=" << threads;
    EXPECT_GT(report.bytes_skipped, 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace fts
