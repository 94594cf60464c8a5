// Property-based cross-engine equivalence: for randomly generated tables,
// schemas, predicates, encodings, and chunkings, every execution engine
// must return exactly the same set of rows, and that set must equal a
// brute-force row-by-row oracle.

#include <gtest/gtest.h>

#include "fts/common/cpu_info.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

struct RandomQueryCase {
  TablePtr table;
  ScanSpec spec;
  std::vector<uint32_t> oracle_rows;  // Global row ids (chunk-major).
};

Value RandomLiteral(DataType type, Xoshiro256& rng) {
  const int64_t magnitude = static_cast<int64_t>(rng.NextBounded(20)) - 10;
  switch (type) {
    case DataType::kInt32:
      return Value(static_cast<int32_t>(magnitude));
    case DataType::kInt64:
      return Value(static_cast<int64_t>(magnitude) * 1000000007LL);
    case DataType::kUInt32:
      return Value(static_cast<uint32_t>(magnitude + 10));
    case DataType::kFloat64:
      return Value(static_cast<double>(magnitude) / 2.0);
    default:
      return Value(static_cast<int32_t>(magnitude));
  }
}

RandomQueryCase MakeCase(uint64_t seed) {
  Xoshiro256 rng(seed);
  RandomQueryCase result;

  const size_t rows = rng.NextBounded(5000) + 1;
  const size_t num_columns = rng.NextBounded(4) + 1;
  const DataType kTypes[] = {DataType::kInt32, DataType::kInt64,
                             DataType::kUInt32, DataType::kFloat64};

  std::vector<ColumnDefinition> schema;
  for (size_t c = 0; c < num_columns; ++c) {
    schema.push_back({StrFormat("c%zu", c), kTypes[rng.NextBounded(4)]});
  }
  const size_t chunk_size = rng.NextBounded(3) == 0
                                ? rng.NextBounded(rows) + 1
                                : rows;
  TableBuilder builder(schema, chunk_size);
  for (size_t c = 0; c < num_columns; ++c) {
    // Every encoding the storage layer carries; the oracle is boxed
    // values, so a mismatch in any compressed-domain path (RLE run
    // classification, FoR rebase, delta reconstruction) fails here too.
    // Bit-packing needs a dictionary-sized value domain; the small
    // literal range used here always fits kMaxPackedBits, and FoR/delta
    // on float columns fall back to plain per chunk by design.
    constexpr ColumnEncoding kDraw[] = {
        ColumnEncoding::kPlain,     ColumnEncoding::kDictionary,
        ColumnEncoding::kBitPacked, ColumnEncoding::kRle,
        ColumnEncoding::kFor,       ColumnEncoding::kDelta};
    builder.SetEncoding(c, kDraw[rng.NextBounded(std::size(kDraw))]);
  }

  // Populate with small-cardinality values so predicates hit often.
  std::vector<std::vector<Value>> cells(rows);
  for (size_t r = 0; r < rows; ++r) {
    cells[r].reserve(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      cells[r].push_back(RandomLiteral(schema[c].type, rng));
    }
    FTS_CHECK(builder.AppendRow(cells[r]).ok());
  }
  result.table = builder.Build();

  const size_t num_predicates = rng.NextBounded(4) + 1;
  for (size_t p = 0; p < num_predicates; ++p) {
    const size_t column = rng.NextBounded(num_columns);
    PredicateSpec predicate;
    predicate.column = schema[column].name;
    predicate.op = kAllCompareOps[rng.NextBounded(6)];
    predicate.value = RandomLiteral(schema[column].type, rng);
    result.spec.predicates.push_back(predicate);
  }

  // Brute-force oracle over boxed values (independent of every kernel).
  for (size_t r = 0; r < rows; ++r) {
    bool all = true;
    for (const auto& predicate : result.spec.predicates) {
      const size_t column =
          *result.table->ColumnIndex(predicate.column);
      const double lhs = ValueAs<double>(cells[r][column]);
      // Cast the literal the way the scan does (to the column type).
      const auto casted =
          CastValue(predicate.value, schema[column].type);
      FTS_CHECK(casted.ok());
      const double rhs = ValueAs<double>(*casted);
      // double holds all test values exactly (small ints, halves).
      if (!EvaluateCompare(predicate.op, lhs, rhs)) {
        all = false;
        break;
      }
    }
    if (all) result.oracle_rows.push_back(static_cast<uint32_t>(r));
  }
  return result;
}

std::vector<uint32_t> Flatten(const TableMatches& matches,
                              const Table& table) {
  std::vector<uint32_t> rows;
  size_t base = 0;
  for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
    for (const auto& chunk : matches.chunks) {
      if (chunk.chunk_id != chunk_id) continue;
      for (const uint32_t pos : chunk.positions) {
        rows.push_back(static_cast<uint32_t>(base + pos));
      }
    }
    base += table.chunk(chunk_id).row_count();
  }
  return rows;
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyTest, AllEnginesMatchOracle) {
  const RandomQueryCase test_case = MakeCase(GetParam());

  // The scan may reject predicates whose literal is not exactly
  // representable in the column type (e.g. 2.5 against int32). The
  // property then is: every engine rejects identically.
  const auto prepared =
      TableScanner::Prepare(test_case.table, test_case.spec);
  if (!prepared.ok()) {
    for (const ScanEngine engine :
         {ScanEngine::kSisdNoVec, ScanEngine::kAvx512Fused512}) {
      if (!ScanEngineAvailable(engine)) continue;
      EXPECT_FALSE(
          testing::ScanWith(test_case.table, test_case.spec, engine)
              .ok());
    }
    return;
  }

  // The chunk-loop reference must agree with the brute-force oracle, and
  // every engine on the morsel executor with both, at every thread count.
  const auto reference = testing::ReferenceScan(*prepared);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(Flatten(*reference, *test_case.table), test_case.oracle_rows)
      << "reference seed=" << GetParam()
      << " spec=" << test_case.spec.ToString() << "\n"
      << testing::ReplayCommand("property_test", GetParam());
  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
        ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise}) {
    if (!ScanEngineAvailable(engine)) continue;
    for (const int threads : {1, 2, 4}) {
      const auto matches = ExecuteParallelScan(
          *prepared, testing::StrictOptions({engine, 0}, threads));
      ASSERT_TRUE(matches.ok()) << ScanEngineToString(engine) << ": "
                                << matches.status().ToString();
      const auto rows = Flatten(*matches, *test_case.table);
      ASSERT_EQ(rows, test_case.oracle_rows)
          << ScanEngineToString(engine) << " threads=" << threads
          << " seed=" << GetParam()
          << " spec=" << test_case.spec.ToString() << "\n"
          << testing::ReplayCommand("property_test", GetParam());
    }
  }
}

// FTS_TEST_SEED=<seed> narrows the suite to one replayed seed.
INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::ValuesIn(testing::SeedRange(1, 41)));

// The JIT engine is expensive per distinct signature; run fewer seeds.
class JitPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitPropertyTest, JitMatchesOracle) {
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  const RandomQueryCase test_case = MakeCase(GetParam());
  const auto prepared =
      TableScanner::Prepare(test_case.table, test_case.spec);
  if (!prepared.ok()) return;

  // Ladder: the JIT does not cover every encoding the case may draw.
  ParallelScanOptions jit = testing::JitOptions(512);
  jit.fallback = FallbackPolicy::kLadder;
  testing::CheckColdAndWarmJit(
      jit, [&] { return ExecuteParallelScan(*prepared, jit); },
      [&](const StatusOr<TableMatches>& matches, const char* tier) {
        ASSERT_TRUE(matches.ok()) << matches.status().ToString();
        EXPECT_EQ(Flatten(*matches, *test_case.table), test_case.oracle_rows)
            << tier << " seed=" << GetParam()
            << " spec=" << test_case.spec.ToString() << "\n"
            << testing::ReplayCommand("property_test", GetParam());
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitPropertyTest,
                         ::testing::ValuesIn(testing::SeedRange(100, 106)));

}  // namespace
}  // namespace fts
