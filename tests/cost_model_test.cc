// Cost model (fts/cost, DESIGN.md §14): selectivity estimation, the rank
// key, and the per-chunk behaviors the model drives inside TableScanner —
// re-ranking on adversarial skew that never changes results and never
// depends on whether the caller pinned the engine.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "fts/common/string_util.h"
#include "fts/cost/cost_model.h"
#include "fts/cost/cost_profile.h"
#include "fts/db/database.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

// Toggles FTS_ADAPTIVE for the duration of a scope. Prepare() reads the
// switch once, so a scanner prepared inside the scope keeps its behavior
// after restore.
class ScopedAdaptive {
 public:
  explicit ScopedAdaptive(bool on) {
    setenv("FTS_ADAPTIVE", on ? "1" : "0", 1);
  }
  ~ScopedAdaptive() { unsetenv("FTS_ADAPTIVE"); }
};

TEST(CostModelTest, UniformSelectivityEndpoints) {
  using cost::EstimateUniformSelectivity;
  // Integral [0, 9]: ten distinct values.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kEq, 4), 0.1);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kLt, 5), 0.5);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kLe, 9), 1.0);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kGt, 9), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kGe, 0), 1.0);
  // Out-of-range literals decide the predicate outright.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kEq, 100), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kNe, 100), 1.0);
  // Degenerate bounds estimate nothing.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(5, 4, CompareOp::kLt, 5), 0.5);
  // Floating domains: kEq is a nominal sliver, ranges are proportional.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<double>(0.0, 10.0, CompareOp::kEq, 5.0),
      0.001);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<double>(0.0, 10.0, CompareOp::kLt, 2.5),
      0.25);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<double>(0.0, 10.0, CompareOp::kGe, 12.0),
      0.0);
}

TEST(CostModelTest, StageRankPrefersSelectiveStages) {
  const cost::CostProfile& profile = cost::DefaultProfile();
  // Same per-row cost: the stage that filters more ranks first.
  EXPECT_LT(cost::StageRank(profile, cost::EncClass::kPlain32, 0.01),
            cost::StageRank(profile, cost::EncClass::kPlain32, 0.9));
  // A stage that filters nothing ranks (effectively) last regardless of
  // how cheap it is.
  EXPECT_GT(cost::StageRank(profile, cost::EncClass::kPlain32, 1.0),
            cost::StageRank(profile, cost::EncClass::kPacked, 0.99));
}

// Two chunk types with opposite value distributions under one conjunction:
// the per-chunk ranking must order each chunk's chain differently, and the
// reordering must not change a single output position.
class AdversarialSkewTest : public ::testing::Test {
 protected:
  static TablePtr BuildSkewTable() {
    constexpr size_t kRowsPerChunk = 1024;
    TableBuilder builder(
        {{"c0", DataType::kInt32}, {"c1", DataType::kInt32}},
        kRowsPerChunk);
    // Chunk 0: c0 wide [0, 1000], c1 narrow [0, 10] -> under
    // `c0 < 5 AND c1 < 5` the c0 stage is far more selective (~0.005 vs
    // ~0.45) and must stay first. Chunk 1 swaps the columns, so the same
    // conjunction must flip its order there.
    for (size_t r = 0; r < kRowsPerChunk; ++r) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(r % 1001)),
                                Value(static_cast<int32_t>(r % 11))})
                    .ok());
    }
    for (size_t r = 0; r < kRowsPerChunk; ++r) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(r % 11)),
                                Value(static_cast<int32_t>(r % 1001))})
                    .ok());
    }
    return builder.Build();
  }

  // Plain, bit-packed and FoR int32 columns whose per-chunk ranges drift
  // against each other, so the zone-map selectivities of their conjuncts
  // cross at a different ratio in every chunk.
  static TablePtr BuildMixedEncodingSkewTable() {
    constexpr size_t kChunks = 40;
    constexpr size_t kRowsPerChunk = 512;
    TableBuilder builder({{"p", DataType::kInt32},
                          {"b", DataType::kInt32},
                          {"f", DataType::kInt32}},
                         kRowsPerChunk);
    builder.SetEncoding(1, ColumnEncoding::kBitPacked);
    builder.SetEncoding(2, ColumnEncoding::kFor);
    for (size_t chunk = 0; chunk < kChunks; ++chunk) {
      const size_t widths[3] = {4 + 3 * chunk, 4 + 3 * (kChunks - 1 - chunk),
                                4 + 3 * (chunk * 7 % kChunks)};
      for (size_t r = 0; r < kRowsPerChunk; ++r) {
        std::vector<Value> row;
        for (const size_t width : widths) {
          row.emplace_back(static_cast<int32_t>(r % (width + 1)));
        }
        FTS_CHECK(builder.AppendRow(row).ok());
      }
    }
    return builder.Build();
  }

  static ScanSpec SkewSpec() {
    ScanSpec spec;
    spec.predicates = {{"c0", CompareOp::kLt, Value(int32_t{5})},
                       {"c1", CompareOp::kLt, Value(int32_t{5})}};
    return spec;
  }
};

TEST_F(AdversarialSkewTest, PerChunkReorderFollowsZoneSelectivity) {
  const TablePtr table = BuildSkewTable();
  const ScanSpec spec = SkewSpec();

  ScopedAdaptive adaptive(true);
  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->model_active());
  ASSERT_EQ(prepared->chunk_plans().size(), 2u);

  // Chunk 0 keeps the spec order (c0 already most selective); chunk 1
  // flips to run its selective c1 stage first.
  const TableScanner::ChunkPlan& keep = prepared->chunk_plans()[0];
  const TableScanner::ChunkPlan& flip = prepared->chunk_plans()[1];
  EXPECT_FALSE(keep.reordered);
  EXPECT_TRUE(flip.reordered);
  EXPECT_EQ(prepared->chunks_reordered(), 1u);
  // In both chunks the executed-first stage is the selective one.
  ASSERT_EQ(keep.stages.size(), 2u);
  ASSERT_EQ(flip.stages.size(), 2u);
  EXPECT_LT(keep.stage_sel[0], keep.stage_sel[1]);
  EXPECT_LT(flip.stage_sel[0], flip.stage_sel[1]);
  // The estimate sees the skew: ~5/1001 * ~5/11 of each chunk.
  EXPECT_GT(prepared->est_rows(), 0.0);
  EXPECT_LT(prepared->est_rows(), 100.0);
}

TEST_F(AdversarialSkewTest, ReorderedChainIsByteIdenticalToStatic) {
  const TablePtr table = BuildSkewTable();
  const ScanSpec spec = SkewSpec();

  StatusOr<TableScanner> off = Status::Internal("unset");
  StatusOr<TableScanner> on = Status::Internal("unset");
  {
    ScopedAdaptive adaptive(false);
    off = TableScanner::Prepare(table, spec);
  }
  {
    ScopedAdaptive adaptive(true);
    on = TableScanner::Prepare(table, spec);
  }
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_FALSE(off->model_active());
  EXPECT_EQ(off->chunks_reordered(), 0u);

  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused512}) {
    if (!ScanEngineAvailable(engine)) continue;
    const ParallelScanOptions options = testing::StrictOptions({engine, 0});
    const auto static_matches = ExecuteParallelScan(*off, options);
    const auto ranked_matches = ExecuteParallelScan(*on, options);
    ASSERT_TRUE(static_matches.ok()) << ScanEngineToString(engine);
    ASSERT_TRUE(ranked_matches.ok()) << ScanEngineToString(engine);
    ASSERT_EQ(static_matches->chunks.size(), ranked_matches->chunks.size());
    for (size_t i = 0; i < static_matches->chunks.size(); ++i) {
      EXPECT_EQ(static_matches->chunks[i].positions,
                ranked_matches->chunks[i].positions)
          << ScanEngineToString(engine) << " chunk " << i;
    }
    const auto static_count = ExecuteParallelScanCount(*off, options);
    const auto ranked_count = ExecuteParallelScanCount(*on, options);
    ASSERT_TRUE(static_count.ok() && ranked_count.ok());
    EXPECT_EQ(*static_count, *ranked_count) << ScanEngineToString(engine);
  }
}

TEST_F(AdversarialSkewTest, PinnedAndUnpinnedQueriesRankAlike) {
  // Chains rank from one static table whatever engine the caller asked
  // for: naming Database::DefaultEngine() must reorder the same chunks,
  // estimate the same rows and return the same answer as leaving the
  // engine unset.
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", BuildMixedEncodingSkewTable()).ok());
  Database::QueryOptions unpinned;
  Database::QueryOptions pinned;
  pinned.engine = Database::DefaultEngine();

  ScopedAdaptive adaptive(true);
  size_t reordered = 0;
  for (const char* where :
       {"p < 5 AND b < 5", "p < 20 AND b < 40", "b < 10 AND f < 10",
        "b < 40 AND f < 20", "p < 10 AND f < 40", "p < 40 AND f < 10",
        "p < 20 AND b < 20 AND f < 20", "p < 60 AND b < 10 AND f < 30"}) {
    for (const char* select : {"COUNT(*)", "SUM(f)"}) {
      const std::string sql =
          StrFormat("SELECT %s FROM t WHERE %s", select, where);
      SCOPED_TRACE(sql);
      const auto free = db.Query(sql, unpinned);
      const auto pin = db.Query(sql, pinned);
      ASSERT_TRUE(free.ok()) << free.status().ToString();
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      const ExecutionReport& a = free->execution_report;
      const ExecutionReport& b = pin->execution_report;
      ASSERT_TRUE(a.model_active);
      EXPECT_EQ(a.chunks_reordered, b.chunks_reordered);
      EXPECT_DOUBLE_EQ(a.est_rows, b.est_rows);
      EXPECT_EQ(a.rows_matched, b.rows_matched);
      EXPECT_EQ(free->ToString(), pin->ToString());
      reordered += a.chunks_reordered;
    }
  }
  // The skew is strong enough that ranking reorders some chains.
  EXPECT_GT(reordered, 0u);
}

TEST_F(AdversarialSkewTest, KillSwitchDisablesModelEntirely) {
  const TablePtr table = BuildSkewTable();
  const ScanSpec spec = SkewSpec();

  ScopedAdaptive adaptive(false);
  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->model_active());
  EXPECT_EQ(prepared->chunks_reordered(), 0u);
  for (const TableScanner::ChunkPlan& plan : prepared->chunk_plans()) {
    EXPECT_FALSE(plan.reordered);
  }
}

// The counters of a scan describe that run alone: a prepared scanner
// holds no execution state, so rerunning it, at any thread count, changes
// no count in its report.
TEST(ScanCountersTest, ReusedScannerReportsEachRunAlone) {
  // Four chunks: RLE `r` with delta `d`, RLE `r` alone, delta `d` alone,
  // and a plain chunk the kernels scan and fold. `d` climbs by one per row
  // within a chunk, so `d < 2600` answers blocks 0, 1 and 3 of each delta
  // chunk from min/max and decodes block 2.
  constexpr size_t kChunkRows = 4096;
  constexpr ColumnEncoding kR[] = {ColumnEncoding::kRle, ColumnEncoding::kRle,
                                   ColumnEncoding::kPlain,
                                   ColumnEncoding::kPlain};
  constexpr ColumnEncoding kD[] = {ColumnEncoding::kDelta,
                                   ColumnEncoding::kPlain,
                                   ColumnEncoding::kDelta,
                                   ColumnEncoding::kPlain};
  TableBuilder builder({{"r", DataType::kInt32}, {"d", DataType::kInt32}},
                       kChunkRows);
  for (size_t chunk = 0; chunk < std::size(kR); ++chunk) {
    builder.SetEncoding(0, kR[chunk]);
    builder.SetEncoding(1, kD[chunk]);
    for (size_t row = 0; row < kChunkRows; ++row) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(row / 16 % 10)),
                                Value(static_cast<int32_t>(row))})
                    .ok());
    }
  }
  const TablePtr table = builder.Build();
  ScanSpec spec;
  spec.predicates = {{"r", CompareOp::kLt, Value(int32_t{5})},
                     {"d", CompareOp::kLt, Value(int32_t{2600})}};
  spec.aggregates = {{AggOp::kSum, "d"}, {AggOp::kCount, ""}};
  ScopedAdaptive adaptive(true);
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
  ASSERT_EQ(scanner->chunk_plans().size(), 4u);

  // Every count a morsel contributes, by name.
  const auto counters = [](const ExecutionReport& report) {
    return std::vector<std::pair<std::string, uint64_t>>{
        {"morsel_count", report.morsel_count},
        {"rle_runs_classified", report.rle_runs_classified},
        {"rle_runs_skipped", report.rle_runs_skipped},
        {"delta_blocks_pruned", report.delta_blocks_pruned},
        {"delta_blocks_decoded", report.delta_blocks_decoded},
        {"agg_kernel_chunks", report.agg_kernel_chunks},
        {"agg_positions_chunks", report.agg_positions_chunks},
        {"agg_delta_blocks", report.agg_delta_blocks},
        {"jit_cache_hits", report.jit_cache_hits},
        {"jit_cache_misses", report.jit_cache_misses}};
  };

  std::vector<std::pair<std::string, uint64_t>> first_scan, first_fold;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ParallelScanOptions options;
    options.requested = {cost::BestFusedEngine(), 0};
    options.threads = threads;
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(run);
      ExecutionReport scan;
      ASSERT_TRUE(ExecuteParallelScan(*scanner, options, &scan).ok());
      ExecutionReport fold;
      ASSERT_TRUE(
          ExecuteParallelScanAggregate(*scanner, options, &fold).ok());
      if (first_scan.empty()) {
        first_scan = counters(scan);
        first_fold = counters(fold);
        // Three chunks run a compressed-domain stage and fold through
        // positions (the delta ones decode blocks 0-2 for SUM(d)); the
        // plain chunk folds in the kernel loop.
        EXPECT_EQ(scan.morsel_count, 4u);
        EXPECT_GT(scan.rle_runs_classified, 0u);
        EXPECT_GT(scan.rle_runs_skipped, 0u);
        EXPECT_EQ(scan.delta_blocks_pruned, 6u);
        EXPECT_EQ(scan.delta_blocks_decoded, 2u);
        EXPECT_EQ(fold.delta_blocks_pruned, 6u);
        EXPECT_EQ(fold.agg_positions_chunks, 3u);
        EXPECT_EQ(fold.agg_kernel_chunks, 1u);
        EXPECT_EQ(fold.agg_delta_blocks, 6u);
        EXPECT_EQ(scan.agg_positions_chunks + scan.agg_kernel_chunks, 0u);
        continue;
      }
      EXPECT_EQ(counters(scan), first_scan);
      EXPECT_EQ(counters(fold), first_fold);
    }
  }
}

}  // namespace
}  // namespace fts
