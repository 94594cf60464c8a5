// Projection differential fuzzer (DESIGN.md §16): the late-materialized
// columnar pipeline must be byte-identical to the tuple-at-a-time
// reference materializer for every gather engine, encoding mix, and
// thread count — including ORDER BY, LIMIT, and the top-K path that
// gathers only the winners.
//
// Two layers are diffed:
//   1. Kernel layer: ProjectionGatherer + ExecuteParallelGather at
//      1/2/4 threads against boxed Table::GetValue rows, on random
//      1-8 column tables drawing all six encodings.
//   2. Plan layer: ExecutePlan on every engine (SISD included) against
//      an in-test oracle — boxed rows over the reference scan, stable-
//      sorted on ValueAs<double> keys and truncated to the LIMIT —
//      rendered via ToString for cell-exact comparison, with random
//      ORDER BY direction and LIMIT (exercising full-sort permutation,
//      truncation, and top-K selection).
//
// Every failure carries the seed; FTS_TEST_SEED=<seed> replays it.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/db/database.h"
#include "fts/exec/parallel_project.h"
#include "fts/plan/physical_plan.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

constexpr const char* kBinary = "projection_differential_test";

// Survivor-count shapes the gather tails mistreat first, plus sizes that
// leave partial lane groups in every kernel.
constexpr size_t kAwkwardRows[] = {1, 15, 16, 17, 33, 64, 65,
                                   257, 1000, 2048};

struct FuzzCase {
  TablePtr table;
  std::vector<size_t> projection;
  std::vector<std::string> names;
  ScanSpec spec;
};

FuzzCase MakeCase(uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzCase result;

  const size_t rows = rng.NextBounded(2) == 0
                          ? kAwkwardRows[rng.NextBounded(
                                std::size(kAwkwardRows))]
                          : rng.NextBounded(5000) + 1;
  const size_t num_columns = rng.NextBounded(8) + 1;
  constexpr DataType kTypes[] = {DataType::kInt32,  DataType::kInt64,
                                 DataType::kUInt32, DataType::kUInt64,
                                 DataType::kFloat32, DataType::kFloat64,
                                 DataType::kInt16};
  constexpr ColumnEncoding kEncodings[] = {
      ColumnEncoding::kPlain,     ColumnEncoding::kDictionary,
      ColumnEncoding::kBitPacked, ColumnEncoding::kRle,
      ColumnEncoding::kFor,       ColumnEncoding::kDelta};

  std::vector<ColumnDefinition> schema;
  for (size_t c = 0; c < num_columns; ++c) {
    schema.push_back(
        {StrFormat("c%zu", c), kTypes[rng.NextBounded(std::size(kTypes))]});
  }
  const size_t chunk_size =
      rng.NextBounded(2) == 0 ? rng.NextBounded(rows) + 1 : rows;
  TableBuilder builder(schema, chunk_size);
  for (size_t c = 0; c < num_columns; ++c) {
    builder.SetEncoding(
        c, kEncodings[rng.NextBounded(std::size(kEncodings))]);
  }
  std::vector<Value> row(num_columns, Value(int32_t{0}));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      // Clustered small values: exact in every type, RLE-friendly, and
      // selective enough that predicates keep a mid-size survivor set.
      const int64_t v = static_cast<int64_t>(rng.NextBounded(40)) - 20;
      switch (schema[c].type) {
        case DataType::kInt32:
          row[c] = Value(static_cast<int32_t>(v));
          break;
        case DataType::kInt64:
          row[c] = Value(v * 1000003);
          break;
        case DataType::kUInt32:
          row[c] = Value(static_cast<uint32_t>(v + 20));
          break;
        case DataType::kUInt64:
          row[c] = Value(static_cast<uint64_t>(v + 20));
          break;
        case DataType::kFloat32:
          row[c] = Value(static_cast<float>(v) / 2.0f);
          break;
        case DataType::kFloat64:
          row[c] = Value(static_cast<double>(v) / 2.0);
          break;
        case DataType::kInt16:
          row[c] = Value(static_cast<int16_t>(v));
          break;
        default:
          row[c] = Value(static_cast<int32_t>(v));
      }
    }
    FTS_CHECK(builder.AppendRow(row).ok());
  }
  result.table = builder.Build();

  // Project a random non-empty subset (with the occasional duplicate —
  // SELECT a, a is legal and must gather twice).
  const size_t width = rng.NextBounded(num_columns) + 1;
  for (size_t i = 0; i < width; ++i) {
    const size_t column = rng.NextBounded(num_columns);
    result.projection.push_back(column);
    result.names.push_back(schema[column].name);
  }

  // 1-2 predicates on random columns; ops that keep survivor sets mixed.
  const size_t num_predicates = rng.NextBounded(2) + 1;
  constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe,
                                CompareOp::kNe};
  for (size_t p = 0; p < num_predicates; ++p) {
    const size_t column = rng.NextBounded(num_columns);
    PredicateSpec predicate;
    predicate.column = schema[column].name;
    predicate.op = kOps[rng.NextBounded(std::size(kOps))];
    const int64_t v = static_cast<int64_t>(rng.NextBounded(20)) - 10;
    switch (schema[column].type) {
      case DataType::kInt32:
        predicate.value = Value(static_cast<int32_t>(v));
        break;
      case DataType::kInt64:
        predicate.value = Value(v * 1000003);
        break;
      case DataType::kUInt32:
        predicate.value = Value(static_cast<uint32_t>(v + 10));
        break;
      case DataType::kUInt64:
        predicate.value = Value(static_cast<uint64_t>(v + 10));
        break;
      case DataType::kFloat32:
        predicate.value = Value(static_cast<float>(v) / 2.0f);
        break;
      case DataType::kFloat64:
        predicate.value = Value(static_cast<double>(v) / 2.0);
        break;
      case DataType::kInt16:
        predicate.value = Value(static_cast<int16_t>(v));
        break;
      default:
        predicate.value = Value(static_cast<int32_t>(v));
    }
    result.spec.predicates.push_back(predicate);
  }
  return result;
}

// Boxed tuple-at-a-time reference over the same matches.
std::vector<std::vector<Value>> ReferenceRows(
    const TablePtr& table, const std::vector<size_t>& projection,
    const TableMatches& matches) {
  std::vector<std::vector<Value>> rows;
  for (const ChunkMatches& chunk : matches.chunks) {
    for (const ChunkOffset pos : chunk.positions) {
      std::vector<Value> row;
      row.reserve(projection.size());
      for (const size_t column : projection) {
        row.push_back(table->GetValue(column, RowId{chunk.chunk_id, pos}));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

class ProjectionDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

// Kernel layer: every gather engine x thread count reproduces the boxed
// reference cell-for-cell.
TEST_P(ProjectionDifferentialTest, GatherMatchesBoxedReference) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);
  const std::string replay = testing::ReplayCommand(kBinary, seed);

  const auto prepared = TableScanner::Prepare(fuzz.table, fuzz.spec);
  // Non-representable literal for the column type: rejection behavior is
  // differential_test's turf; nothing to project here.
  if (!prepared.ok()) return;
  const auto matches = testing::ReferenceScan(*prepared);
  ASSERT_TRUE(matches.ok()) << replay;
  const std::vector<std::vector<Value>> reference =
      ReferenceRows(fuzz.table, fuzz.projection, *matches);

  const auto gatherer =
      ProjectionGatherer::Prepare(fuzz.table, fuzz.projection);
  ASSERT_TRUE(gatherer.ok()) << replay;

  std::vector<FusedKernelKind> kernels = {FusedKernelKind::kScalar};
  if (GetCpuFeatures().avx2) kernels.push_back(FusedKernelKind::kAvx2_128);
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    kernels.push_back(FusedKernelKind::kAvx512_512);
  }
  for (const FusedKernelKind kind : kernels) {
    for (const int threads : {1, 2, 4}) {
      ParallelProjectOptions options;
      options.kernel = kind;
      options.threads = threads;
      ColumnarResult out;
      GatherStats stats;
      ASSERT_TRUE(ExecuteParallelGather(*gatherer, *matches, fuzz.names,
                                        options, &out, &stats)
                      .ok())
          << replay;
      ASSERT_EQ(out.row_count(), reference.size())
          << FusedKernelKindToString(kind) << " threads=" << threads
          << "\n" << replay;
      for (size_t r = 0; r < reference.size(); ++r) {
        for (size_t c = 0; c < fuzz.projection.size(); ++c) {
          ASSERT_EQ(ValueToString(out.ValueAt(r, c)),
                    ValueToString(reference[r][c]))
              << FusedKernelKindToString(kind) << " threads=" << threads
              << " row=" << r << " col=" << c << "\n" << replay;
        }
      }
      // Every output cell is attributed to exactly one encoding class.
      uint64_t attributed = 0;
      for (size_t e = 0; e < 6; ++e) attributed += stats.rows_by_encoding[e];
      EXPECT_EQ(attributed, reference.size() * fuzz.projection.size())
          << replay;
      EXPECT_EQ(stats.kernel_rows + stats.typed_rows, attributed) << replay;
    }
  }
}

// Plan layer: ExecutePlan's columnar pipeline on every engine (SISD, fused,
// JIT) against the boxed oracle — including random ORDER BY / LIMIT, whose
// top-K path gathers only the winners.
TEST_P(ProjectionDifferentialTest, PlanPipelineMatchesReferencePath) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);
  const std::string replay = testing::ReplayCommand(kBinary, seed);
  Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);

  PhysicalPlan plan;
  plan.table = fuzz.table;
  plan.table_name = "fuzz";
  PhysicalPlan::ScanStep step;
  step.spec = fuzz.spec;
  step.engine = ScanEngine::kScalarFused;
  plan.scan_steps.push_back(step);
  plan.output = PhysicalPlan::Output::kProject;
  plan.projection_indexes = fuzz.projection;
  plan.projection_names = fuzz.names;
  if (rng.NextBounded(2) == 0) {
    plan.order_by_index = rng.NextBounded(fuzz.projection.size());
    plan.order_descending = rng.NextBounded(2) == 0;
  }
  if (rng.NextBounded(2) == 0) {
    plan.limit = rng.NextBounded(50);
  }

  std::vector<ScanEngine> engines = {ScanEngine::kSisdNoVec,
                                     ScanEngine::kScalarFused};
  if (GetCpuFeatures().avx2) engines.push_back(ScanEngine::kAvx2Fused128);
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    engines.push_back(ScanEngine::kAvx512Fused512);
#if !defined(__SANITIZE_THREAD__)
    // TSan cannot follow dlopen'd JIT-compiled code; the JIT arm runs in
    // the plain tier-1 configuration only.
    engines.push_back(ScanEngine::kJit);
#endif
  }

  // Oracle: boxed rows over the reference scan, stable-sorted on the
  // ORDER BY key and truncated to the LIMIT.
  const auto prepared = TableScanner::Prepare(fuzz.table, fuzz.spec);
  // Non-representable literal: the plan must reject it too.
  if (!prepared.ok()) {
    EXPECT_FALSE(ExecutePlan(plan).ok()) << replay;
    return;
  }
  const auto matches = testing::ReferenceScan(*prepared);
  ASSERT_TRUE(matches.ok()) << replay;
  QueryResult reference;
  reference.column_names = fuzz.names;
  reference.rows = ReferenceRows(fuzz.table, fuzz.projection, *matches);
  if (plan.order_by_index.has_value()) {
    const size_t key = *plan.order_by_index;
    const bool descending = plan.order_descending;
    std::stable_sort(reference.rows.begin(), reference.rows.end(),
                     [key, descending](const std::vector<Value>& a,
                                       const std::vector<Value>& b) {
                       const double lhs = ValueAs<double>(a[key]);
                       const double rhs = ValueAs<double>(b[key]);
                       return descending ? lhs > rhs : lhs < rhs;
                     });
  }
  if (plan.limit.has_value() && reference.rows.size() > *plan.limit) {
    reference.rows.resize(*plan.limit);
  }
  const std::string reference_text =
      reference.ToString(reference.RowCountOut());

  for (const ScanEngine engine : engines) {
    plan.scan_steps[0].engine = engine;
    for (const int threads : {1, 2, 4}) {
      plan.threads = threads;
      const auto got = ExecutePlan(plan);
      ASSERT_TRUE(got.ok())
          << ScanEngineToString(engine) << ": " << got.status().ToString()
          << "\n" << replay;
      EXPECT_TRUE(got->columnar_valid)
          << ScanEngineToString(engine) << " threads=" << threads << "\n"
          << replay;
      EXPECT_EQ(got->RowCountOut(), reference.RowCountOut())
          << ScanEngineToString(engine) << " threads=" << threads << "\n"
          << replay;
      EXPECT_EQ(got->ToString(got->RowCountOut()), reference_text)
          << ScanEngineToString(engine) << " threads=" << threads << "\n"
          << replay;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionDifferentialTest,
                         ::testing::ValuesIn(testing::SeedRange(1, 40)));

// A projection pinned to the SISD engine gathers through the scalar
// kernel (no boxed fallback) and matches the fused engine's rows, with
// and without the top-K path.
TEST(ProjectionDatabaseTest, SisdProjectionGathersWithScalarKernel) {
  ScanTableOptions table_options;
  table_options.rows = 20000;
  table_options.selectivities = {0.05, 1.0, 1.0};
  table_options.chunk_size = 4096;
  const GeneratedScanTable generated = MakeScanTable(table_options);
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", generated.table).ok());

  const std::string select =
      StrFormat("SELECT c0, c1, c2 FROM t WHERE c0 = %d",
                generated.search_values[0]);
  // The fused engine the SISD rows are compared against.
  Database::QueryOptions fused_options;
  fused_options.engine = GetCpuFeatures().HasFusedScanAvx512()
                             ? ScanEngine::kAvx512Fused512
                             : ScanEngine::kScalarFused;
  for (const std::string& sql :
       {select, select + " ORDER BY c1 DESC LIMIT 10"}) {
    Database::QueryOptions sisd;
    sisd.engine = ScanEngine::kSisdNoVec;
    const auto got = db.Query(sql, sisd);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    EXPECT_EQ(got->execution_report.gather_engine, "Scalar Fused") << sql;
    EXPECT_TRUE(got->columnar_valid) << sql;

    const auto fused = db.Query(sql, fused_options);
    ASSERT_TRUE(fused.ok()) << sql << ": " << fused.status().ToString();
    ASSERT_GT(fused->RowCountOut(), 0u) << sql;
    EXPECT_EQ(got->ToString(got->RowCountOut()),
              fused->ToString(fused->RowCountOut()))
        << sql;
  }
}

}  // namespace
}  // namespace fts
