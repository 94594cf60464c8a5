// Unit tests for the zone-map layer: the min-max reduction kernels
// (fts/simd/minmax_kernels.h) against std::minmax_element on every ISA the
// CPU offers, the bit-packed code reduction across word-boundary runs,
// BuildColumnZoneMap over every encoding, and the ClassifyZone predicate
// logic the scan planner relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "fts/common/aligned_buffer.h"
#include "fts/common/random.h"
#include "fts/scan/table_scan.h"
#include "fts/simd/minmax_kernels.h"
#include "fts/simd/zone_map_builder.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"
#include "fts/storage/zone_map.h"
#include "test_util.h"

namespace fts {
namespace {

// Sizes that stress lane tails: below/at/above the 8- and 16-lane widths,
// plus a chunk-ish body.
constexpr size_t kSizes[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100,
                             127, 1000, 4097};

std::vector<MinMaxKernelKind> AvailableKinds() {
  std::vector<MinMaxKernelKind> kinds;
  for (const MinMaxKernelKind kind :
       {MinMaxKernelKind::kScalar, MinMaxKernelKind::kAvx2,
        MinMaxKernelKind::kAvx512}) {
    if (GetMinMaxKernels(kind) != nullptr) kinds.push_back(kind);
  }
  return kinds;
}

template <typename T, typename Fn>
void CheckTypedKernel(Fn fn, const char* what, Xoshiro256& rng) {
  for (const size_t rows : kSizes) {
    AlignedVector<T> data(rows);
    for (auto& v : data) {
      if constexpr (std::is_floating_point_v<T>) {
        v = static_cast<T>(static_cast<int64_t>(rng.NextBounded(20001)) -
                           10000) /
            T{2};
      } else {
        // Span the full type range, including both extremes.
        v = static_cast<T>(rng.Next());
      }
    }
    // Plant the exact type extremes sometimes so boundary values round-trip.
    if constexpr (!std::is_floating_point_v<T>) {
      if (rows >= 3) {
        data[rng.NextBounded(rows)] = std::numeric_limits<T>::min();
        data[rng.NextBounded(rows)] = std::numeric_limits<T>::max();
      }
    }
    const auto [expect_min, expect_max] =
        std::minmax_element(data.begin(), data.end());
    T min{};
    T max{};
    ASSERT_TRUE(fn(data.data(), rows, &min, &max)) << what << " rows=" << rows;
    EXPECT_EQ(min, *expect_min) << what << " rows=" << rows;
    EXPECT_EQ(max, *expect_max) << what << " rows=" << rows;
  }
}

TEST(MinMaxKernelsTest, TypedReductionsMatchStd) {
  Xoshiro256 rng(7);
  for (const MinMaxKernelKind kind : AvailableKinds()) {
    const MinMaxKernels& kernels = *GetMinMaxKernels(kind);
    const char* name = MinMaxKernelKindToString(kind);
    CheckTypedKernel<int32_t>(kernels.i32, name, rng);
    CheckTypedKernel<uint32_t>(kernels.u32, name, rng);
    CheckTypedKernel<int64_t>(kernels.i64, name, rng);
    CheckTypedKernel<uint64_t>(kernels.u64, name, rng);
    CheckTypedKernel<float>(kernels.f32, name, rng);
    CheckTypedKernel<double>(kernels.f64, name, rng);
  }
}

TEST(MinMaxKernelsTest, FloatKernelsRejectNaN) {
  for (const MinMaxKernelKind kind : AvailableKinds()) {
    const MinMaxKernels& kernels = *GetMinMaxKernels(kind);
    for (const size_t rows : kSizes) {
      for (const size_t nan_at : {size_t{0}, rows / 2, rows - 1}) {
        AlignedVector<float> f32(rows, 1.0f);
        f32[nan_at] = std::nanf("");
        float fmin, fmax;
        EXPECT_FALSE(kernels.f32(f32.data(), rows, &fmin, &fmax))
            << MinMaxKernelKindToString(kind) << " rows=" << rows
            << " nan_at=" << nan_at;
        AlignedVector<double> f64(rows, 1.0);
        f64[nan_at] = std::nan("");
        double dmin, dmax;
        EXPECT_FALSE(kernels.f64(f64.data(), rows, &dmin, &dmax))
            << MinMaxKernelKindToString(kind) << " rows=" << rows
            << " nan_at=" << nan_at;
      }
    }
  }
}

// The packed reduction must agree with a code-at-a-time ExtractCode loop
// at every bit width, including runs whose rows*bits cross 64-bit word
// boundaries mid-stream (shift wraps through all 8 byte phases).
TEST(MinMaxKernelsTest, PackedReductionMatchesScalarExtract) {
  Xoshiro256 rng(11);
  for (const MinMaxKernelKind kind : AvailableKinds()) {
    const MinMaxKernels& kernels = *GetMinMaxKernels(kind);
    for (int bits = 1; bits <= kMaxPackedBits; ++bits) {
      for (const size_t rows : kSizes) {
        AlignedVector<uint8_t> packed(
            BitPackedColumn<int32_t>::PackedBytes(rows, bits) +
                kBitPackedSlackBytes,
            0);
        const uint64_t mask = (uint64_t{1} << bits) - 1;
        uint32_t expect_min = ~uint32_t{0};
        uint32_t expect_max = 0;
        for (size_t row = 0; row < rows; ++row) {
          const uint64_t code = rng.Next() & mask;
          BitPackedColumn<int32_t>::WriteCode(packed.data(), row, bits, code);
          expect_min = std::min(expect_min, static_cast<uint32_t>(code));
          expect_max = std::max(expect_max, static_cast<uint32_t>(code));
        }
        uint32_t min = 0;
        uint32_t max = 0;
        kernels.packed(packed.data(), rows, bits, &min, &max);
        ASSERT_EQ(min, expect_min)
            << MinMaxKernelKindToString(kind) << " bits=" << bits
            << " rows=" << rows;
        ASSERT_EQ(max, expect_max)
            << MinMaxKernelKindToString(kind) << " bits=" << bits
            << " rows=" << rows;
      }
    }
  }
}

TEST(ZoneMapBuilderTest, PlainColumnsEveryType) {
  Xoshiro256 rng(3);
  const auto check = [&](auto tag) {
    using T = decltype(tag);
    for (const size_t rows : {size_t{1}, size_t{2}, size_t{1000}}) {
      AlignedVector<T> values(rows);
      for (auto& v : values) {
        v = static_cast<T>(static_cast<int64_t>(rng.NextBounded(2001)) -
                           1000);
      }
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      const T expect_min = *lo;
      const T expect_max = *hi;
      const ValueColumn<T> column{AlignedVector<T>(values)};
      const ZoneMap zone = BuildColumnZoneMap(column);
      ASSERT_TRUE(zone.valid);
      EXPECT_EQ(zone.row_count, rows);
      EXPECT_TRUE(zone.nulls_free);
      EXPECT_FALSE(zone.has_codes);
      EXPECT_EQ(ValueAs<T>(zone.min), expect_min);
      EXPECT_EQ(ValueAs<T>(zone.max), expect_max);
    }
  };
  check(int8_t{});
  check(int16_t{});
  check(int32_t{});
  check(int64_t{});
  check(uint8_t{});
  check(uint16_t{});
  check(uint32_t{});
  check(uint64_t{});
  check(float{});
  check(double{});
}

TEST(ZoneMapBuilderTest, EmptyColumnIsInvalid) {
  const ValueColumn<int32_t> column{AlignedVector<int32_t>{}};
  const ZoneMap zone = BuildColumnZoneMap(column);
  EXPECT_FALSE(zone.valid);
  EXPECT_EQ(zone.row_count, 0u);
}

TEST(ZoneMapBuilderTest, NaNFloatChunkIsInvalid) {
  AlignedVector<double> values = {1.0, std::nan(""), 3.0};
  const ValueColumn<double> column{std::move(values)};
  const ZoneMap zone = BuildColumnZoneMap(column);
  EXPECT_FALSE(zone.valid);
  EXPECT_EQ(zone.row_count, 3u);
}

TEST(ZoneMapBuilderTest, DictionaryColumnCodeAndValueBounds) {
  AlignedVector<int32_t> values = {50, 20, 80, 20, 50};
  const DictionaryColumn<int32_t> column =
      DictionaryColumn<int32_t>::FromValues(values);
  const ZoneMap zone = BuildColumnZoneMap(column);
  ASSERT_TRUE(zone.valid);
  ASSERT_TRUE(zone.has_codes);
  // Sorted dictionary {20, 50, 80}: codes span 0..2, values 20..80.
  EXPECT_EQ(zone.min_code, 0u);
  EXPECT_EQ(zone.max_code, 2u);
  EXPECT_EQ(ValueAs<int32_t>(zone.min), 20);
  EXPECT_EQ(ValueAs<int32_t>(zone.max), 80);
}

// Hand-built dictionary with entries no row references: the code bounds
// must come from the stored codes, and the value bounds from indexing the
// dictionary at those bounds.
TEST(ZoneMapBuilderTest, UnusedDictionaryEntriesDoNotWidenBounds) {
  std::vector<int32_t> dictionary = {10, 20, 30, 40, 50};
  AlignedVector<uint32_t> codes = {2, 3, 2, 3, 3};
  const DictionaryColumn<int32_t> column(std::move(dictionary),
                                         std::move(codes));
  const ZoneMap zone = BuildColumnZoneMap(column);
  ASSERT_TRUE(zone.valid);
  EXPECT_EQ(zone.min_code, 2u);
  EXPECT_EQ(zone.max_code, 3u);
  EXPECT_EQ(ValueAs<int32_t>(zone.min), 30);
  EXPECT_EQ(ValueAs<int32_t>(zone.max), 40);
}

TEST(ZoneMapBuilderTest, BitPackedColumnEveryWidth) {
  Xoshiro256 rng(5);
  // Dictionary sizes straddling several bit widths, with rows counts that
  // put codes on word boundaries.
  for (const size_t cardinality : {size_t{2}, size_t{3}, size_t{9},
                                   size_t{100}, size_t{1000}}) {
    for (const size_t rows : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                              size_t{1000}}) {
      AlignedVector<int32_t> values(rows);
      for (auto& v : values) {
        v = static_cast<int32_t>(rng.NextBounded(cardinality)) * 3;
      }
      const BitPackedColumn<int32_t> column =
          BitPackedColumn<int32_t>::FromValues(values);
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      const ZoneMap zone = BuildColumnZoneMap(column);
      ASSERT_TRUE(zone.valid);
      ASSERT_TRUE(zone.has_codes);
      EXPECT_EQ(ValueAs<int32_t>(zone.min), *lo)
          << "cardinality=" << cardinality << " rows=" << rows;
      EXPECT_EQ(ValueAs<int32_t>(zone.max), *hi)
          << "cardinality=" << cardinality << " rows=" << rows;
      EXPECT_EQ(zone.min_code, column.CodeAt(static_cast<size_t>(
                                   lo - values.begin())));
      EXPECT_EQ(zone.max_code, column.CodeAt(static_cast<size_t>(
                                   hi - values.begin())));
    }
  }
}

// The compressed encodings build zone maps without decoding: RLE reduces
// over the run values, FoR over base + delta bounds, delta over the
// per-block min/max. Bounds must match the decoded data exactly — pruning
// correctness for the compressed-domain scan paths hangs off these.
TEST(ZoneMapBuilderTest, CompressedEncodingsCarryValueBounds) {
  Xoshiro256 rng(13);
  for (const size_t rows :
       {size_t{1}, size_t{17}, size_t{1000}, size_t{1025}, size_t{4097}}) {
    AlignedVector<int64_t> values(rows);
    // Clustered values so RLE actually forms runs; spread enough that
    // delta blocks carry distinct bounds.
    int64_t current = static_cast<int64_t>(rng.NextBounded(1000));
    for (auto& v : values) {
      if (rng.NextBounded(4) == 0) {
        current = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
      }
      v = current;
    }
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());

    const RleColumn<int64_t> rle = RleColumn<int64_t>::FromValues(values);
    const ZoneMap rle_zone = BuildColumnZoneMap(rle);
    ASSERT_TRUE(rle_zone.valid) << "rle rows=" << rows;
    EXPECT_EQ(rle_zone.row_count, rows);
    EXPECT_EQ(ValueAs<int64_t>(rle_zone.min), *lo) << "rle rows=" << rows;
    EXPECT_EQ(ValueAs<int64_t>(rle_zone.max), *hi) << "rle rows=" << rows;

    const auto for_column = ForColumn<int64_t>::TryFromValues(values);
    ASSERT_TRUE(for_column.has_value()) << "rows=" << rows;
    const ZoneMap for_zone = BuildColumnZoneMap(*for_column);
    ASSERT_TRUE(for_zone.valid) << "for rows=" << rows;
    EXPECT_EQ(ValueAs<int64_t>(for_zone.min), *lo) << "for rows=" << rows;
    EXPECT_EQ(ValueAs<int64_t>(for_zone.max), *hi) << "for rows=" << rows;

    const auto delta = DeltaColumn<int64_t>::TryFromValues(values);
    ASSERT_TRUE(delta.has_value()) << "rows=" << rows;
    const ZoneMap delta_zone = BuildColumnZoneMap(*delta);
    ASSERT_TRUE(delta_zone.valid) << "delta rows=" << rows;
    EXPECT_EQ(ValueAs<int64_t>(delta_zone.min), *lo)
        << "delta rows=" << rows;
    EXPECT_EQ(ValueAs<int64_t>(delta_zone.max), *hi)
        << "delta rows=" << rows;
  }
}

// Regression: a zero-row chunk has no zone map bounds (BuildColumnZoneMap
// returns invalid), and the planner used to build stages against the
// sentinel values. It must instead classify the chunk as always-pruned —
// impossible, counted in chunks_pruned, contributing zero matches.
TEST(ZoneMapBuilderTest, ZeroRowChunkIsAlwaysPruned) {
  TableBuilder builder({{"a", DataType::kInt32}});
  ASSERT_TRUE(
      builder
          .AddChunk({std::make_shared<ValueColumn<int32_t>>(
              AlignedVector<int32_t>{5, 6, 7})})
          .ok());
  ASSERT_TRUE(builder
                  .AddChunk({std::make_shared<ValueColumn<int32_t>>(
                      AlignedVector<int32_t>{})})
                  .ok());
  const TablePtr table = builder.Build();
  ASSERT_EQ(table->chunk_count(), 2u);
  // The invalid zone map is withheld entirely.
  EXPECT_EQ(table->chunk(1).zone_map(0), nullptr);

  ScanSpec spec;
  spec.predicates = {{"a", CompareOp::kGe, Value(int32_t{6})}};
  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->chunk_plans()[0].impossible);
  EXPECT_TRUE(prepared->chunk_plans()[1].impossible);
  EXPECT_EQ(prepared->pruning().chunks_pruned, 1u);

  const auto matches = testing::ReferenceScan(*prepared);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->TotalMatches(), 2u);  // Rows 6 and 7 in chunk 0 only.
}

TEST(ZoneMapBuilderTest, TableBuilderAttachesZoneMapsToEveryChunk) {
  TableBuilder builder({{"a", DataType::kInt32}, {"b", DataType::kFloat64}},
                       /*target_chunk_size=*/16);
  builder.SetDictionaryEncoded(0);
  for (int r = 0; r < 50; ++r) {
    FTS_CHECK(builder
                  .AppendRow({Value(int32_t{100 - r}),
                              Value(static_cast<double>(r) / 2.0)})
                  .ok());
  }
  const TablePtr table = builder.Build();
  ASSERT_EQ(table->chunk_count(), 4u);  // 16+16+16+2.
  for (ChunkId chunk_id = 0; chunk_id < table->chunk_count(); ++chunk_id) {
    const Chunk& chunk = table->chunk(chunk_id);
    for (size_t c = 0; c < chunk.column_count(); ++c) {
      const ZoneMap* zone = chunk.zone_map(c);
      ASSERT_NE(zone, nullptr) << "chunk " << chunk_id << " col " << c;
      EXPECT_EQ(zone->row_count, chunk.row_count());
    }
  }
  // Chunk 1 holds a = 100-16 .. 100-31 descending.
  const ZoneMap* zone = table->chunk(1).zone_map(0);
  EXPECT_EQ(ValueAs<int32_t>(zone->min), 69);
  EXPECT_EQ(ValueAs<int32_t>(zone->max), 84);
}

// ClassifyZone truth table over a [10, 20] zone, including both inclusive
// boundaries — the off-by-one surface where pruning bugs live.
TEST(ClassifyZoneTest, TruthTable) {
  const auto fate = [](CompareOp op, int32_t v) {
    return ClassifyZone<int32_t>(10, 20, op, v);
  };
  using enum ZoneFate;
  // Eq: outside -> kNone; inside -> kMaybe.
  EXPECT_EQ(fate(CompareOp::kEq, 9), kNone);
  EXPECT_EQ(fate(CompareOp::kEq, 10), kMaybe);
  EXPECT_EQ(fate(CompareOp::kEq, 20), kMaybe);
  EXPECT_EQ(fate(CompareOp::kEq, 21), kNone);
  // Ne: outside -> kAll; inside -> kMaybe.
  EXPECT_EQ(fate(CompareOp::kNe, 9), kAll);
  EXPECT_EQ(fate(CompareOp::kNe, 15), kMaybe);
  EXPECT_EQ(fate(CompareOp::kNe, 21), kAll);
  // Lt: v <= min -> kNone; v > max -> kAll.
  EXPECT_EQ(fate(CompareOp::kLt, 10), kNone);
  EXPECT_EQ(fate(CompareOp::kLt, 11), kMaybe);
  EXPECT_EQ(fate(CompareOp::kLt, 20), kMaybe);
  EXPECT_EQ(fate(CompareOp::kLt, 21), kAll);
  // Le: v < min -> kNone; v >= max -> kAll.
  EXPECT_EQ(fate(CompareOp::kLe, 9), kNone);
  EXPECT_EQ(fate(CompareOp::kLe, 10), kMaybe);
  EXPECT_EQ(fate(CompareOp::kLe, 20), kAll);
  // Gt: v >= max -> kNone; v < min -> kAll.
  EXPECT_EQ(fate(CompareOp::kGt, 20), kNone);
  EXPECT_EQ(fate(CompareOp::kGt, 19), kMaybe);
  EXPECT_EQ(fate(CompareOp::kGt, 10), kMaybe);
  EXPECT_EQ(fate(CompareOp::kGt, 9), kAll);
  // Ge: v > max -> kNone; v <= min -> kAll.
  EXPECT_EQ(fate(CompareOp::kGe, 21), kNone);
  EXPECT_EQ(fate(CompareOp::kGe, 20), kMaybe);
  EXPECT_EQ(fate(CompareOp::kGe, 11), kMaybe);
  EXPECT_EQ(fate(CompareOp::kGe, 10), kAll);
}

TEST(ClassifyZoneTest, SingleValueZone) {
  using enum ZoneFate;
  EXPECT_EQ(ClassifyZone<int32_t>(7, 7, CompareOp::kEq, 7), kAll);
  EXPECT_EQ(ClassifyZone<int32_t>(7, 7, CompareOp::kEq, 8), kNone);
  EXPECT_EQ(ClassifyZone<int32_t>(7, 7, CompareOp::kNe, 7), kNone);
  EXPECT_EQ(ClassifyZone<int32_t>(7, 7, CompareOp::kNe, 8), kAll);
}

TEST(ClassifyZoneTest, NaNSearchValueDecidesWithoutBounds) {
  using enum ZoneFate;
  const double nan = std::nan("");
  EXPECT_EQ(ClassifyZone<double>(1.0, 2.0, CompareOp::kEq, nan), kNone);
  EXPECT_EQ(ClassifyZone<double>(1.0, 2.0, CompareOp::kLt, nan), kNone);
  EXPECT_EQ(ClassifyZone<double>(1.0, 2.0, CompareOp::kGe, nan), kNone);
  EXPECT_EQ(ClassifyZone<double>(1.0, 2.0, CompareOp::kNe, nan), kAll);
}

TEST(ClassifyZoneTest, TypeBoundaryValues) {
  using enum ZoneFate;
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  // A zone spanning the whole type: nothing outside it exists.
  EXPECT_EQ(ClassifyZone<int32_t>(kMin, kMax, CompareOp::kGe, kMin), kAll);
  EXPECT_EQ(ClassifyZone<int32_t>(kMin, kMax, CompareOp::kLe, kMax), kAll);
  EXPECT_EQ(ClassifyZone<int32_t>(kMin, kMax, CompareOp::kLt, kMin), kNone);
  EXPECT_EQ(ClassifyZone<int32_t>(kMin, kMax, CompareOp::kGt, kMax), kNone);
  // Unsigned boundary.
  EXPECT_EQ(ClassifyZone<uint32_t>(0u, ~0u, CompareOp::kGe, 0u), kAll);
  EXPECT_EQ(ClassifyZone<uint32_t>(0u, ~0u, CompareOp::kLt, 0u), kNone);
}

}  // namespace
}  // namespace fts
