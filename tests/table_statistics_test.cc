// TableStatistics::Compute against the row-loop reference in test_util.h:
// every ColumnStatistics field must match bit for bit, whether a chunk's
// min/max comes from its zone map, its dictionary or (no valid zone map)
// the row loop, and the sampled distinct count must equal the hash-set
// count.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fts/common/random.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/table.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/table_statistics.h"
#include "fts/storage/value_column.h"
#include "test_util.h"

namespace fts {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectMatchesReference(const Table& table, size_t sample_limit) {
  const TableStatistics stats = TableStatistics::Compute(table, sample_limit);
  const std::vector<ColumnStatistics> reference =
      testing::ReferenceStatistics(table, sample_limit);
  ASSERT_EQ(stats.column_count(), reference.size());
  for (size_t c = 0; c < reference.size(); ++c) {
    SCOPED_TRACE(table.schema()[c].name);
    const ColumnStatistics& actual = stats.column(c);
    const ColumnStatistics& expected = reference[c];
    EXPECT_EQ(Bits(actual.min), Bits(expected.min))
        << actual.min << " vs " << expected.min;
    EXPECT_EQ(Bits(actual.max), Bits(expected.max))
        << actual.max << " vs " << expected.max;
    EXPECT_EQ(Bits(actual.distinct_count), Bits(expected.distinct_count))
        << actual.distinct_count << " vs " << expected.distinct_count;
    EXPECT_EQ(actual.row_count, expected.row_count);
    ASSERT_EQ(actual.zones.size(), expected.zones.size());
    for (size_t z = 0; z < expected.zones.size(); ++z) {
      EXPECT_EQ(Bits(actual.zones[z].min), Bits(expected.zones[z].min));
      EXPECT_EQ(Bits(actual.zones[z].max), Bits(expected.zones[z].max));
      EXPECT_EQ(actual.zones[z].row_count, expected.zones[z].row_count);
    }
  }
}

// Columns of `chunks` chunks of `rows` rows each, one ColumnPtr per chunk,
// from `make(chunk, row)`.
template <typename T, typename Make>
std::vector<AlignedVector<T>> ChunkValues(size_t chunks, size_t rows,
                                          Make make) {
  std::vector<AlignedVector<T>> out(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    out[k].resize(rows);
    for (size_t r = 0; r < rows; ++r) out[k][r] = make(k, r);
  }
  return out;
}

TablePtr BuildFromChunks(std::vector<ColumnDefinition> schema,
                         const std::vector<std::vector<ColumnPtr>>& chunks) {
  TableBuilder builder(std::move(schema));
  for (const auto& columns : chunks) {
    FTS_CHECK(builder.AddChunk(columns).ok());
  }
  return builder.Build();
}

TEST(TableStatisticsReferenceTest, MultiChunkPlainInt32) {
  Xoshiro256 rng(11);
  TableBuilder builder(
      {{"wide", DataType::kInt32}, {"narrow", DataType::kInt32}}, 4096);
  // 10 full chunks and a partial one; sample_limit 1000 strides by 4.
  for (size_t r = 0; r < 10 * 4096 + 1234; ++r) {
    FTS_CHECK(builder
                  .AppendRow({Value(static_cast<int32_t>(
                                  rng.NextInRange(-2000000, 2000000))),
                              Value(static_cast<int32_t>(
                                  rng.NextBounded(50)))})
                  .ok());
  }
  const TablePtr table = builder.Build();
  ASSERT_EQ(table->chunk_count(), 11u);
  ExpectMatchesReference(*table, 1000);
  ExpectMatchesReference(*table, 1 << 16);
}

TEST(TableStatisticsReferenceTest, Int64Above2To53) {
  // Neighbouring int64 values above 2^53 widen to the same double: min/max
  // must still be the widened exact bounds, and the sampled distinct count
  // counts the collapsed doubles.
  constexpr int64_t kBase = int64_t{1} << 53;
  Xoshiro256 rng(53);
  const auto high = ChunkValues<int64_t>(4, 3000, [&](size_t, size_t) {
    return kBase + static_cast<int64_t>(rng.NextBounded(1000));
  });
  const auto spread = ChunkValues<int64_t>(4, 3000, [&](size_t k, size_t r) {
    const int64_t v = (int64_t{1} << 60) + static_cast<int64_t>(r * 7 + 1);
    return k % 2 == 0 ? v : -v;
  });
  std::vector<std::vector<ColumnPtr>> chunks;
  for (size_t k = 0; k < 4; ++k) {
    chunks.push_back({std::make_shared<ValueColumn<int64_t>>(high[k]),
                      std::make_shared<ValueColumn<int64_t>>(spread[k])});
  }
  const TablePtr table = BuildFromChunks(
      {{"high", DataType::kInt64}, {"spread", DataType::kInt64}}, chunks);
  ExpectMatchesReference(*table, 500);
}

TEST(TableStatisticsReferenceTest, FloatWithAndWithoutNaNChunks) {
  // No value is zero, so no extreme depends on the sign of a zero.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Xoshiro256 rng(7);
  const auto draw = [&] {
    const float v = static_cast<float>(rng.NextBounded(200000) + 1) / 7.0f;
    return rng.NextBounded(2) == 0 ? v : -v;
  };
  // Chunks 1 and 3 hold NaN mid-chunk (no valid zone map there).
  const auto clean = ChunkValues<float>(4, 2500, [&](size_t, size_t) {
    return draw();
  });
  const auto some_nan = ChunkValues<float>(4, 2500, [&](size_t k, size_t r) {
    return (k % 2 == 1 && r % 97 == 5) ? kNaN : draw();
  });
  // The column's very first row is NaN, which the row loop keeps as the
  // min/max seed.
  const auto nan_first = ChunkValues<double>(4, 2500, [&](size_t k, size_t r) {
    return (k == 0 && r == 0) ? std::numeric_limits<double>::quiet_NaN()
                              : static_cast<double>(draw());
  });
  std::vector<std::vector<ColumnPtr>> chunks;
  for (size_t k = 0; k < 4; ++k) {
    chunks.push_back({std::make_shared<ValueColumn<float>>(clean[k]),
                      std::make_shared<ValueColumn<float>>(some_nan[k]),
                      std::make_shared<ValueColumn<double>>(nan_first[k])});
  }
  const TablePtr table = BuildFromChunks({{"clean", DataType::kFloat32},
                                          {"some_nan", DataType::kFloat32},
                                          {"nan_first", DataType::kFloat64}},
                                         chunks);
  ASSERT_NE(table->chunk(0).zone_map(0), nullptr);
  ASSERT_EQ(table->chunk(1).zone_map(1), nullptr);
  ASSERT_EQ(table->chunk(0).zone_map(2), nullptr);
  ExpectMatchesReference(*table, 300);
}

TEST(TableStatisticsReferenceTest, DictionaryBitPackedAndMixedColumns) {
  Xoshiro256 rng(3);
  TableBuilder builder({{"dict", DataType::kInt32},
                        {"packed", DataType::kInt32},
                        {"plain", DataType::kInt32}},
                       2048);
  builder.SetDictionaryEncoded(0);
  builder.SetBitPacked(1);
  for (size_t r = 0; r < 5 * 2048 + 17; ++r) {
    FTS_CHECK(
        builder
            .AppendRow(
                {Value(static_cast<int32_t>(rng.NextInRange(-500, 500))),
                 Value(static_cast<int32_t>(rng.NextBounded(300))),
                 Value(static_cast<int32_t>(rng.NextBounded(100000)))})
            .ok());
  }
  ExpectMatchesReference(*builder.Build(), 256);

  // One column whose chunks alternate plain and dictionary encodings: the
  // plain chunks' samples and the dictionaries' bounds both feed it.
  const auto values = ChunkValues<int32_t>(4, 3000, [&](size_t, size_t) {
    return static_cast<int32_t>(rng.NextInRange(-9000, 9000));
  });
  std::vector<std::vector<ColumnPtr>> chunks;
  for (size_t k = 0; k < 4; ++k) {
    ColumnPtr column =
        k % 2 == 0 ? ColumnPtr(std::make_shared<DictionaryColumn<int32_t>>(
                         DictionaryColumn<int32_t>::FromValues(values[k])))
                   : ColumnPtr(std::make_shared<ValueColumn<int32_t>>(
                         values[k]));
    chunks.push_back({column});
  }
  ExpectMatchesReference(
      *BuildFromChunks({{"mixed", DataType::kInt32}}, chunks), 400);
}

TEST(TableStatisticsReferenceTest, ChunksWithoutZoneMapsUseTheRowLoop) {
  Xoshiro256 rng(29);
  std::vector<std::shared_ptr<const Chunk>> chunks;
  for (size_t k = 0; k < 3; ++k) {
    AlignedVector<int32_t> values(4000);
    for (auto& v : values) {
      v = static_cast<int32_t>(rng.NextInRange(-70000, 70000));
    }
    chunks.push_back(std::make_shared<Chunk>(std::vector<ColumnPtr>{
        std::make_shared<ValueColumn<int32_t>>(std::move(values))}));
  }
  const Table table({{"a", DataType::kInt32}}, std::move(chunks));
  ASSERT_EQ(table.chunk(0).zone_map(0), nullptr);
  ExpectMatchesReference(table, 700);
}

}  // namespace
}  // namespace fts
