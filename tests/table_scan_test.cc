#include <gtest/gtest.h>

#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

ScanSpec TwoPredicateSpec(const GeneratedScanTable& generated) {
  ScanSpec spec;
  spec.predicates = {
      {"c0", CompareOp::kEq, Value(generated.search_values[0])},
      {"c1", CompareOp::kEq, Value(generated.search_values[1])}};
  return spec;
}

std::vector<ScanEngine> TestableEngines() {
  std::vector<ScanEngine> engines;
  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
        ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise}) {
    if (ScanEngineAvailable(engine)) engines.push_back(engine);
  }
  return engines;
}

class TableScanEngineTest : public ::testing::TestWithParam<ScanEngine> {};

TEST_P(TableScanEngineTest, MatchesGroundTruth) {
  ScanTableOptions options;
  options.rows = 20000;
  options.selectivities = {0.05, 0.5};
  options.seed = 31;
  const GeneratedScanTable generated = MakeScanTable(options);

  const auto matches = testing::ScanWith(
      generated.table, TwoPredicateSpec(generated), GetParam());
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_EQ(matches->TotalMatches(), generated.stage_matches.back());

  // Verify each reported position against the oracle mask.
  for (const ChunkMatches& chunk : matches->chunks) {
    for (const uint32_t pos : chunk.positions) {
      EXPECT_TRUE(generated.final_mask[pos]) << "position " << pos;
    }
  }
}

TEST_P(TableScanEngineTest, ChunkedTableAgrees) {
  ScanTableOptions options;
  options.rows = 10000;
  options.selectivities = {0.1, 0.5};
  options.seed = 32;
  options.chunk_size = 1234;
  const GeneratedScanTable generated = MakeScanTable(options);

  const auto matches = testing::ScanWith(
      generated.table, TwoPredicateSpec(generated), GetParam());
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_EQ(matches->chunks.size(), generated.table->chunk_count());
  EXPECT_EQ(matches->TotalMatches(), generated.stage_matches.back());
}

TEST_P(TableScanEngineTest, DictionaryEncodedAgrees) {
  ScanTableOptions options;
  options.rows = 8000;
  options.selectivities = {0.2, 0.5};
  options.seed = 33;
  options.dictionary_encode = true;
  const GeneratedScanTable generated = MakeScanTable(options);

  const auto matches = testing::ScanWith(
      generated.table, TwoPredicateSpec(generated), GetParam());
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_EQ(matches->TotalMatches(), generated.stage_matches.back());
}

TEST_P(TableScanEngineTest, CountAgreesWithCollect) {
  ScanTableOptions options;
  options.rows = 5000;
  options.selectivities = {0.3, 0.5};
  options.seed = 34;
  const GeneratedScanTable generated = MakeScanTable(options);

  const ScanSpec spec = TwoPredicateSpec(generated);
  const auto count = testing::CountWith(generated.table, spec, GetParam());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, generated.stage_matches.back());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, TableScanEngineTest, ::testing::ValuesIn(TestableEngines()),
    [](const auto& info) {
      std::string name = ScanEngineToString(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(TableScannerTest, UnknownColumnFails) {
  ScanTableOptions options;
  options.rows = 100;
  options.selectivities = {0.5};
  const auto generated = MakeScanTable(options);
  ScanSpec spec;
  spec.predicates = {{"nope", CompareOp::kEq, Value(1)}};
  EXPECT_EQ(TableScanner::Prepare(generated.table, spec).status().code(),
            StatusCode::kNotFound);
}

TEST(TableScannerTest, UnrepresentableValueFails) {
  ScanTableOptions options;
  options.rows = 100;
  options.selectivities = {0.5};
  const auto generated = MakeScanTable(options);
  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kEq, Value(5.5)}};
  EXPECT_FALSE(TableScanner::Prepare(generated.table, spec).ok());
}

TEST(TableScannerTest, TooManyPredicatesFails) {
  ScanTableOptions options;
  options.rows = 100;
  options.selectivities = {0.5};
  const auto generated = MakeScanTable(options);
  ScanSpec spec;
  for (size_t i = 0; i < kMaxScanStages + 1; ++i) {
    spec.predicates.push_back({"c0", CompareOp::kEq, Value(1)});
  }
  EXPECT_FALSE(TableScanner::Prepare(generated.table, spec).ok());
}

TEST(TableScannerTest, EmptyPredicateListMatchesAllRows) {
  ScanTableOptions options;
  options.rows = 500;
  options.selectivities = {0.5};
  const auto generated = MakeScanTable(options);
  const auto matches = testing::ScanWith(generated.table, ScanSpec{},
                                         {ScanEngine::kAvx512Fused512, 0});
  if (!matches.ok()) GTEST_SKIP() << matches.status().ToString();
  EXPECT_EQ(matches->TotalMatches(), 500u);
}

TEST(TableScannerTest, ImpossibleDictionaryPredicateShortCircuits) {
  // Equality with a value absent from the dictionary: the chunk plan is
  // marked impossible and the scan returns zero rows without running.
  TableBuilder builder({{"a", DataType::kInt32}});
  builder.SetDictionaryEncoded(0);
  for (const int v : {1, 2, 3}) {
    ASSERT_TRUE(builder.AppendRow({Value(v)}).ok());
  }
  const TablePtr table = builder.Build();
  ScanSpec spec;
  spec.predicates = {{"a", CompareOp::kEq, Value(42)}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());
  EXPECT_TRUE(scanner->chunk_plans()[0].impossible);
  const auto matches = ExecuteParallelScan(
      *scanner, testing::StrictOptions({ScanEngine::kScalarFused, 0}));
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->TotalMatches(), 0u);
}

TEST(TableScannerTest, TautologicalDictionaryPredicateIsDropped) {
  TableBuilder builder({{"a", DataType::kInt32}, {"b", DataType::kInt32}});
  builder.SetDictionaryEncoded(0);
  for (const int v : {1, 2, 3, 4}) {
    ASSERT_TRUE(builder.AppendRow({Value(v), Value(v % 2)}).ok());
  }
  const TablePtr table = builder.Build();
  ScanSpec spec;
  spec.predicates = {{"a", CompareOp::kGe, Value(0)},  // Always true.
                     {"b", CompareOp::kEq, Value(1)}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());
  EXPECT_EQ(scanner->chunk_plans()[0].stages.size(), 1u);
  const auto matches = ExecuteParallelScan(
      *scanner, testing::StrictOptions({ScanEngine::kScalarFused, 0}));
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->TotalMatches(), 2u);
}

TEST(TableScannerTest, JitEngineRedirects) {
  ScanTableOptions options;
  options.rows = 10;
  options.selectivities = {0.5};
  const auto generated = MakeScanTable(options);
  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kEq, Value(5)}};
  const auto scanner = TableScanner::Prepare(generated.table, spec);
  ASSERT_TRUE(scanner.ok());
  PosList out(generated.table->chunk(0).row_count() + kScanOutputSlack);
  EXPECT_FALSE(scanner->ExecuteChunk(ScanEngine::kJit, 0, out.data()).ok());
}

}  // namespace
}  // namespace fts
