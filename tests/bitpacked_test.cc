#include <gtest/gtest.h>

#include "fts/common/random.h"
#include "fts/scan/table_scan.h"
#include "fts/simd/dispatch.h"
#include "fts/simd/kernels_scalar.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"
#include "test_util.h"

namespace fts {
namespace {

TEST(BitPackedColumnTest, BitWidthForDictionarySize) {
  using C = BitPackedColumn<int32_t>;
  EXPECT_EQ(C::BitWidthFor(1), 1);
  EXPECT_EQ(C::BitWidthFor(2), 1);
  EXPECT_EQ(C::BitWidthFor(3), 2);
  EXPECT_EQ(C::BitWidthFor(4), 2);
  EXPECT_EQ(C::BitWidthFor(5), 3);
  EXPECT_EQ(C::BitWidthFor(1 << 20), 20);
  EXPECT_EQ(C::BitWidthFor((1 << 20) + 1), 21);
}

TEST(BitPackedColumnTest, PackUnpackRoundTrip) {
  for (const int bits : {1, 2, 3, 5, 7, 8, 11, 13, 16, 17, 23, 26}) {
    const size_t rows = 1000;
    AlignedVector<uint8_t> packed(
        BitPackedColumn<int32_t>::PackedBytes(rows, bits) +
            kBitPackedSlackBytes,
        0);
    Xoshiro256 rng(static_cast<uint64_t>(bits));
    std::vector<uint32_t> expected(rows);
    for (size_t i = 0; i < rows; ++i) {
      expected[i] =
          static_cast<uint32_t>(rng.NextBounded(1ull << bits));
      BitPackedColumn<int32_t>::WriteCode(packed.data(), i, bits,
                                          expected[i]);
    }
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(
          BitPackedColumn<int32_t>::ExtractCode(packed.data(), i, bits),
          expected[i])
          << "bits=" << bits << " row=" << i;
    }
  }
}

TEST(BitPackedColumnTest, FromValuesDecodes) {
  AlignedVector<int32_t> values = {70, 30, 70, 10, 30, 90, 10, 10};
  const auto column = BitPackedColumn<int32_t>::FromValues(values);
  EXPECT_EQ(column.dictionary(), (std::vector<int32_t>{10, 30, 70, 90}));
  EXPECT_EQ(column.bit_width(), 2);
  EXPECT_EQ(column.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(ValueAs<int32_t>(column.GetValue(i)), values[i]) << i;
  }
  // 8 codes x 2 bits = 2 bytes versus 32 bytes of uint32 codes.
  EXPECT_EQ(column.packed_bytes(), 2u);
  EXPECT_DOUBLE_EQ(column.CompressionVsCodes(), 16.0);
}

TEST(BitPackedColumnTest, ColumnInterface) {
  AlignedVector<int32_t> values = {5, 6, 5};
  const auto column = BitPackedColumn<int32_t>::FromValues(values);
  EXPECT_EQ(column.encoding(), ColumnEncoding::kBitPacked);
  EXPECT_EQ(column.scan_type(), DataType::kUInt32);
  EXPECT_EQ(column.packed_bit_width(), 1);
  EXPECT_EQ(column.data_type(), DataType::kInt32);
}

TEST(BitPackedColumnTest, PredicateTranslationMatchesDictionary) {
  AlignedVector<int32_t> values;
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    values.push_back(static_cast<int32_t>(rng.NextBounded(37)) * 3);
  }
  const auto packed = BitPackedColumn<int32_t>::FromValues(values);
  for (const CompareOp op : kAllCompareOps) {
    for (const int32_t probe : {-1, 0, 3, 4, 54, 108, 200}) {
      const auto translated = packed.TranslatePredicate(op, probe);
      // Oracle: per-row evaluation.
      for (size_t row = 0; row < values.size(); ++row) {
        const bool expected = EvaluateCompare(op, values[row], probe);
        bool actual = false;
        switch (translated.kind) {
          case DictionaryPredicate::Kind::kNone:
            actual = false;
            break;
          case DictionaryPredicate::Kind::kAll:
            actual = true;
            break;
          case DictionaryPredicate::Kind::kCompare:
            actual = EvaluateCompare(translated.op, packed.CodeAt(row),
                                     translated.code);
            break;
        }
        ASSERT_EQ(actual, expected)
            << CompareOpToString(op) << " " << probe << " row " << row;
      }
    }
  }
}

// Kernel sweep: packed chains against the scalar reference across bit
// widths, operators, and chain shapes (including mixed packed + plain).
class PackedKernelTest
    : public ::testing::TestWithParam<std::tuple<FusedKernelKind, int>> {
 protected:
  void SetUp() override {
    auto kernel = GetFusedScanKernel(std::get<0>(GetParam()));
    if (!kernel.ok()) GTEST_SKIP() << kernel.status().ToString();
    kernel_ = *kernel;
  }
  FusedScanFn kernel_ = nullptr;
};

TEST_P(PackedKernelTest, PackedChainMatchesReference) {
  const int bits = std::get<1>(GetParam());
  Xoshiro256 rng(static_cast<uint64_t>(bits) * 77);
  for (const size_t rows : {1ul, 15ul, 16ul, 17ul, 255ul, 2049ul}) {
    // Two packed stages with random codes in [0, 2^bits).
    std::vector<AlignedVector<uint8_t>> buffers;
    std::vector<ScanStage> stages;
    for (int s = 0; s < 2; ++s) {
      AlignedVector<uint8_t> packed(
          BitPackedColumn<int32_t>::PackedBytes(rows, bits) +
              kBitPackedSlackBytes,
          0);
      for (size_t i = 0; i < rows; ++i) {
        BitPackedColumn<int32_t>::WriteCode(
            packed.data(), i, bits, rng.NextBounded(1ull << bits));
      }
      buffers.push_back(std::move(packed));
      ScanStage stage;
      stage.data = buffers.back().data();
      stage.type = ScanElementType::kU32;
      stage.op = kAllCompareOps[rng.NextBounded(6)];
      stage.value.u32 = static_cast<uint32_t>(
          rng.NextBounded(1ull << bits));
      stage.packed_bits = static_cast<uint8_t>(bits);
      stages.push_back(stage);
    }
    std::vector<uint32_t> expected(rows + kScanOutputSlack);
    std::vector<uint32_t> actual(rows + kScanOutputSlack);
    const size_t n_expected =
        FusedScanScalar(stages.data(), stages.size(), rows,
                        expected.data());
    const size_t n_actual =
        kernel_(stages.data(), stages.size(), rows, actual.data());
    ASSERT_EQ(n_actual, n_expected) << "bits=" << bits << " rows=" << rows;
    for (size_t i = 0; i < n_expected; ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "position " << i;
    }
  }
}

TEST_P(PackedKernelTest, MixedPackedAndPlainChain) {
  const int bits = std::get<1>(GetParam());
  Xoshiro256 rng(static_cast<uint64_t>(bits) * 131);
  const size_t rows = 3000;

  AlignedVector<uint8_t> packed(
      BitPackedColumn<int32_t>::PackedBytes(rows, bits) +
          kBitPackedSlackBytes,
      0);
  for (size_t i = 0; i < rows; ++i) {
    BitPackedColumn<int32_t>::WriteCode(packed.data(), i, bits,
                                        rng.NextBounded(1ull << bits));
  }
  AlignedVector<int32_t> plain(rows);
  for (auto& v : plain) v = static_cast<int32_t>(rng.NextBounded(4));

  std::vector<ScanStage> stages(2);
  stages[0].data = plain.data();
  stages[0].type = ScanElementType::kI32;
  stages[0].op = CompareOp::kEq;
  stages[0].value.i32 = 1;
  stages[1].data = packed.data();
  stages[1].type = ScanElementType::kU32;
  stages[1].op = CompareOp::kLe;
  stages[1].value.u32 =
      static_cast<uint32_t>((1ull << bits) / 2);
  stages[1].packed_bits = static_cast<uint8_t>(bits);

  for (int order = 0; order < 2; ++order) {
    std::vector<uint32_t> expected(rows + kScanOutputSlack);
    std::vector<uint32_t> actual(rows + kScanOutputSlack);
    const size_t n_expected =
        FusedScanScalar(stages.data(), 2, rows, expected.data());
    const size_t n_actual = kernel_(stages.data(), 2, rows, actual.data());
    ASSERT_EQ(n_actual, n_expected) << "bits=" << bits << " order=" << order;
    for (size_t i = 0; i < n_expected; ++i) {
      ASSERT_EQ(actual[i], expected[i]);
    }
    std::swap(stages[0], stages[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedKernelTest,
    ::testing::Combine(
        ::testing::Values(FusedKernelKind::kScalar, FusedKernelKind::kAvx2_128,
                          FusedKernelKind::kAvx512_128,
                          FusedKernelKind::kAvx512_256,
                          FusedKernelKind::kAvx512_512),
        ::testing::Values(1, 2, 3, 7, 8, 12, 16, 21, 26)));

TEST(BitPackedScanTest, EndToEndThroughTableScanner) {
  // Build a table whose column is bit-packed and scan it with every
  // engine; counts must match a plain-encoded copy of the same data.
  Xoshiro256 rng(99);
  AlignedVector<int32_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<int32_t>(rng.NextBounded(100)));
  }
  TableBuilder packed_builder({{"v", DataType::kInt32}});
  AlignedVector<int32_t> copy = values;
  FTS_CHECK(packed_builder
                .AddChunk({std::make_shared<BitPackedColumn<int32_t>>(
                    BitPackedColumn<int32_t>::FromValues(values))})
                .ok());
  const TablePtr packed_table = packed_builder.Build();

  TableBuilder plain_builder({{"v", DataType::kInt32}});
  FTS_CHECK(plain_builder
                .AddChunk({std::make_shared<ValueColumn<int32_t>>(
                    std::move(copy))})
                .ok());
  const TablePtr plain_table = plain_builder.Build();

  for (const CompareOp op : kAllCompareOps) {
    ScanSpec spec;
    spec.predicates = {{"v", op, Value(50)}};
    const auto expected = testing::ReferenceScan(plain_table, spec);
    ASSERT_TRUE(expected.ok());
    for (const ScanEngine engine :
         {ScanEngine::kSisdNoVec, ScanEngine::kScalarFused,
          ScanEngine::kAvx2Fused128, ScanEngine::kAvx512Fused512,
          ScanEngine::kBlockwise}) {
      if (!ScanEngineAvailable(engine)) continue;
      const auto count = testing::CountWith(packed_table, spec, engine);
      ASSERT_TRUE(count.ok()) << ScanEngineToString(engine);
      EXPECT_EQ(*count, expected->TotalMatches())
          << ScanEngineToString(engine) << " op " << CompareOpToString(op);
    }
  }
}

}  // namespace
}  // namespace fts
