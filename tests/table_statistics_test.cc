// TableStatistics::Compute against the row-loop reference in test_util.h:
// every ColumnStatistics field must match bit for bit, whether a chunk's
// min/max comes from its zone map, its dictionary or (no valid zone map)
// the row loop, and the sampled distinct count must equal the hash-set
// count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fts/common/random.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/table_statistics.h"
#include "fts/storage/value_column.h"
#include "test_util.h"

namespace fts {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameStatistics(const ColumnStatistics& actual,
                          const ColumnStatistics& expected) {
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

void ExpectMatchesReference(const Table& table, size_t sample_limit) {
  const TableStatistics stats = TableStatistics::Compute(table, sample_limit);
  const std::vector<ColumnStatistics> reference =
      testing::ReferenceStatistics(table, sample_limit);
  ASSERT_EQ(stats.column_count(), reference.size());
  for (size_t c = 0; c < reference.size(); ++c) {
    SCOPED_TRACE(table.schema()[c].name);
    ExpectSameStatistics(stats.column(c), reference[c]);
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

// The same rows stored plain, RLE, FoR and delta describe one column: the
// encoded twins sample the rows the plain one samples and take the same
// bounds, so every statistic is bit-identical — with zone maps (built by
// TableBuilder) and without (hand-built chunks pay the row loop).
template <typename T>
void ExpectEncodedTwinsMatchPlain(DataType type, size_t sample_limit) {
  constexpr ColumnEncoding kTwins[] = {ColumnEncoding::kPlain,
                                       ColumnEncoding::kRle,
                                       ColumnEncoding::kFor,
                                       ColumnEncoding::kDelta};
  Xoshiro256 rng(static_cast<uint64_t>(type) + 17);
  // Runs of 1-16 equal values over a narrow range: RLE has runs, and FoR
  // and delta fit every chunk.
  T current = 0;
  const auto values = ChunkValues<T>(5, 3001, [&](size_t, size_t r) {
    if (r == 0 || rng.NextBounded(8) == 0) {
      current = static_cast<T>(static_cast<int64_t>(rng.NextBounded(5000)) -
                               (std::is_signed_v<T> ? 2500 : 0));
    }
    return current;
  });
  std::vector<ColumnDefinition> schema;
  for (const ColumnEncoding encoding : kTwins) {
    schema.push_back({ColumnEncodingName(encoding), type});
  }
  std::vector<std::vector<ColumnPtr>> hand_built(values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    hand_built[k] = {
        std::make_shared<ValueColumn<T>>(values[k]),
        std::make_shared<RleColumn<T>>(RleColumn<T>::FromValues(values[k])),
        std::make_shared<ForColumn<T>>(
            *ForColumn<T>::TryFromValues(values[k])),
        std::make_shared<DeltaColumn<T>>(
            *DeltaColumn<T>::TryFromValues(values[k]))};
  }
  TableBuilder zoned(schema, 3001);
  for (size_t c = 0; c < std::size(kTwins); ++c) {
    zoned.SetEncoding(c, kTwins[c]);
  }
  for (const AlignedVector<T>& chunk : values) {
    for (const T v : chunk) {
      FTS_CHECK(zoned.AppendRow(std::vector<Value>(schema.size(), Value(v)))
                    .ok());
    }
  }
  std::vector<std::shared_ptr<const Chunk>> chunks;
  for (auto& columns : hand_built) {
    chunks.push_back(std::make_shared<Chunk>(std::move(columns)));
  }
  const TablePtr with_zones = zoned.Build();
  const Table without_zones(schema, std::move(chunks));
  for (const Table* table : {with_zones.get(), &without_zones}) {
    for (size_t c = 0; c < std::size(kTwins); ++c) {
      for (ChunkId k = 0; k < table->chunk_count(); ++k) {
        ASSERT_EQ(table->chunk(k).column(c).encoding(), kTwins[c]);
        ASSERT_EQ(table->chunk(k).zone_map(c) != nullptr,
                  table == with_zones.get());
      }
    }
    ExpectMatchesReference(*table, sample_limit);
    const TableStatistics stats = TableStatistics::Compute(*table,
                                                           sample_limit);
    for (size_t c = 1; c < std::size(kTwins); ++c) {
      SCOPED_TRACE(ColumnEncodingName(kTwins[c]));
      ExpectSameStatistics(stats.column(c), stats.column(0));
    }
  }
}

TEST(TableStatisticsReferenceTest, EncodedTwinsMatchPlain) {
  ExpectEncodedTwinsMatchPlain<int32_t>(DataType::kInt32, 500);
  ExpectEncodedTwinsMatchPlain<int64_t>(DataType::kInt64, 1 << 16);
  ExpectEncodedTwinsMatchPlain<uint32_t>(DataType::kUInt32, 700);
}

// The sort + unique count of distinct doubles under ==: one value for both
// zeros, one per NaN.
double SortUniqueDistinct(std::vector<double> values) {
  const auto nans = std::partition(values.begin(), values.end(),
                                   [](double v) { return !std::isnan(v); });
  const size_t nan_count = static_cast<size_t>(values.end() - nans);
  std::sort(values.begin(), nans);
  return static_cast<double>(std::unique(values.begin(), nans) -
                             values.begin() + nan_count);
}

// With every row sampled, the distinct count is exactly the sampled count:
// the radix-sorted count must equal sort + unique over random bit patterns
// (subnormals, infinities, NaN payloads), both zeros, repeats, and int64
// values above 2^53 that collide once widened to double — for the 64-bit
// keys of double/int64 columns and the 32-bit keys of float/int32 ones.
TEST(TableStatisticsReferenceTest, DistinctCountMatchesSortUnique) {
  constexpr int64_t kBase = int64_t{1} << 53;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    const size_t rows = 1 + static_cast<size_t>(rng.NextBounded(3000));
    std::vector<double> drawn;
    const auto doubles = ChunkValues<double>(2, rows, [&](size_t, size_t) {
      double v = 0.0;
      switch (rng.NextBounded(6)) {
        case 0:
          v = std::bit_cast<double>(rng.Next());
          break;
        case 1:
          v = std::numeric_limits<double>::quiet_NaN();
          break;
        case 2:
          v = rng.NextBounded(2) == 0 ? 0.0 : -0.0;
          break;
        case 3:
          v = static_cast<double>(rng.NextInRange(-50, 50));
          break;
        case 4:
          v = drawn.empty() ? 1.5 : drawn[rng.NextBounded(drawn.size())];
          break;
        default:
          v = (rng.NextDouble() - 0.5) * 1e6;
          break;
      }
      drawn.push_back(v);
      return v;
    });
    std::vector<double> widened;
    const auto longs = ChunkValues<int64_t>(2, rows, [&](size_t, size_t) {
      const int64_t magnitude =
          rng.NextBounded(2) == 0
              ? kBase + static_cast<int64_t>(rng.NextBounded(64))
              : (int64_t{1} << 62) + static_cast<int64_t>(rng.Next() >> 3);
      const int64_t v = rng.NextBounded(2) == 0 ? magnitude : -magnitude;
      widened.push_back(static_cast<double>(v));
      return v;
    });
    // 32-bit keys: floats (bit patterns, NaN, both zeros) and int32 over
    // its whole range.
    std::vector<double> floats_widened;
    const auto floats = ChunkValues<float>(2, rows, [&](size_t, size_t) {
      float v = 0.0f;
      switch (rng.NextBounded(4)) {
        case 0:
          v = std::bit_cast<float>(static_cast<uint32_t>(rng.Next()));
          break;
        case 1:
          v = std::numeric_limits<float>::quiet_NaN();
          break;
        case 2:
          v = rng.NextBounded(2) == 0 ? 0.0f : -0.0f;
          break;
        default:
          v = static_cast<float>(rng.NextInRange(-20, 20)) / 4.0f;
          break;
      }
      floats_widened.push_back(static_cast<double>(v));
      return v;
    });
    std::vector<double> ints_widened;
    const auto ints = ChunkValues<int32_t>(2, rows, [&](size_t, size_t) {
      const int32_t v =
          rng.NextBounded(2) == 0
              ? static_cast<int32_t>(static_cast<uint32_t>(rng.Next()))
              : static_cast<int32_t>(rng.NextInRange(-40, 40));
      ints_widened.push_back(static_cast<double>(v));
      return v;
    });
    std::vector<std::vector<ColumnPtr>> chunks;
    for (size_t k = 0; k < 2; ++k) {
      chunks.push_back({std::make_shared<ValueColumn<double>>(doubles[k]),
                        std::make_shared<ValueColumn<int64_t>>(longs[k]),
                        std::make_shared<ValueColumn<float>>(floats[k]),
                        std::make_shared<ValueColumn<int32_t>>(ints[k])});
    }
    const TablePtr table = BuildFromChunks({{"d", DataType::kFloat64},
                                            {"i", DataType::kInt64},
                                            {"f", DataType::kFloat32},
                                            {"n", DataType::kInt32}},
                                           chunks);
    const TableStatistics stats = TableStatistics::Compute(*table, rows);
    EXPECT_EQ(stats.column(0).distinct_count, SortUniqueDistinct(drawn));
    EXPECT_EQ(stats.column(1).distinct_count, SortUniqueDistinct(widened));
    EXPECT_EQ(stats.column(2).distinct_count,
              SortUniqueDistinct(floats_widened));
    EXPECT_EQ(stats.column(3).distinct_count,
              SortUniqueDistinct(ints_widened));
    ExpectMatchesReference(*table, rows);
  }
}

}  // namespace
}  // namespace fts
