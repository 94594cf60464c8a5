#include <gtest/gtest.h>

#include "fts/common/random.h"
#include "fts/scan/row_store.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"
#include "test_util.h"

namespace fts {
namespace {

TEST(RowStoreTest, LayoutAndCellAccess) {
  RowStore store({{"a", DataType::kInt8},
                  {"b", DataType::kInt64},
                  {"c", DataType::kFloat32}});
  EXPECT_EQ(store.row_bytes(), 1u + 8u + 4u);
  ASSERT_TRUE(store.AppendRow({Value(1), Value(int64_t{1} << 40),
                               Value(2.5f)})
                  .ok());
  ASSERT_TRUE(
      store.AppendRow({Value(-2), Value(int64_t{7}), Value(-0.5f)}).ok());
  EXPECT_EQ(store.row_count(), 2u);
  EXPECT_EQ(ValueAs<int>(store.GetValue(0, 0)), 1);
  EXPECT_EQ(ValueAs<int64_t>(store.GetValue(0, 1)), int64_t{1} << 40);
  EXPECT_FLOAT_EQ(ValueAs<float>(store.GetValue(1, 2)), -0.5f);
  EXPECT_EQ(ValueAs<int>(store.GetValue(1, 0)), -2);
}

TEST(RowStoreTest, AppendValidation) {
  RowStore store({{"a", DataType::kInt8}});
  EXPECT_FALSE(store.AppendRow({Value(1), Value(2)}).ok());
  EXPECT_FALSE(store.AppendRow({Value(1000)}).ok());  // Overflows int8.
  EXPECT_EQ(store.row_count(), 0u);
}

TEST(RowStoreTest, ScanMatchesColumnStore) {
  // Same data as rows and as columns; scans must agree for all operators.
  Xoshiro256 rng(17);
  const size_t rows = 4000;
  AlignedVector<int32_t> a(rows), b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int32_t>(rng.NextBounded(10));
    b[i] = static_cast<int32_t>(rng.NextBounded(10));
  }

  std::vector<ColumnDefinition> schema = {{"a", DataType::kInt32},
                                          {"b", DataType::kInt32}};
  TableBuilder builder(schema);
  AlignedVector<int32_t> a_copy = a, b_copy = b;
  FTS_CHECK(
      builder
          .AddChunk(
              {std::make_shared<ValueColumn<int32_t>>(std::move(a_copy)),
               std::make_shared<ValueColumn<int32_t>>(std::move(b_copy))})
          .ok());
  const TablePtr table = builder.Build();

  RowStore store(schema);
  for (size_t i = 0; i < rows; ++i) {
    FTS_CHECK(store.AppendRow({Value(a[i]), Value(b[i])}).ok());
  }

  for (const CompareOp op : kAllCompareOps) {
    ScanSpec spec;
    spec.predicates = {{"a", op, Value(5)}, {"b", CompareOp::kNe, Value(3)}};
    const auto row_matches = store.Scan(spec);
    ASSERT_TRUE(row_matches.ok());
    const auto column_matches = testing::ReferenceScan(table, spec);
    ASSERT_TRUE(column_matches.ok());
    const PosList& expected = column_matches->chunks[0].positions;
    ASSERT_EQ(row_matches->size(), expected.size())
        << CompareOpToString(op);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*row_matches)[i], expected[i]);
    }
    const auto count = store.ScanCount(spec);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, expected.size());
  }
}

TEST(RowStoreTest, AppendColumnsAsRows) {
  AlignedVector<int32_t> a = {1, 2, 3};
  AlignedVector<int32_t> b = {4, 5, 6};
  const ValueColumn<int32_t> col_a(std::move(a));
  const ValueColumn<int32_t> col_b(std::move(b));
  RowStore store({{"a", DataType::kInt32}, {"b", DataType::kInt32}});
  ASSERT_TRUE(store.AppendColumnsAsRows({&col_a, &col_b}).ok());
  EXPECT_EQ(store.row_count(), 3u);
  EXPECT_EQ(ValueAs<int>(store.GetValue(2, 1)), 6);
}

TEST(RowStoreTest, ScanErrors) {
  RowStore store({{"a", DataType::kInt32}});
  FTS_CHECK(store.AppendRow({Value(1)}).ok());
  ScanSpec unknown;
  unknown.predicates = {{"zzz", CompareOp::kEq, Value(1)}};
  EXPECT_EQ(store.Scan(unknown).status().code(), StatusCode::kNotFound);
  ScanSpec bad_value;
  bad_value.predicates = {{"a", CompareOp::kEq, Value(1.5)}};
  EXPECT_FALSE(store.Scan(bad_value).ok());
}

}  // namespace
}  // namespace fts
