#include <gtest/gtest.h>

#include "fts/jit/code_generator.h"

namespace fts {
namespace {

JitScanSignature MakeSignature(
    std::initializer_list<JitStageSignature> stages, int bits = 512) {
  JitScanSignature signature;
  signature.stages = stages;
  signature.register_bits = bits;
  return signature;
}

TEST(SignatureTest, CacheKeyStable) {
  const auto signature =
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq},
                     {ScanElementType::kU32, CompareOp::kLt}});
  EXPECT_EQ(signature.CacheKey(), "512:i32=;u32<");
  const auto narrow =
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq}}, 128);
  EXPECT_EQ(narrow.CacheKey(), "128:i32=");
}

TEST(SignatureTest, DistinctSignaturesDistinctKeys) {
  const auto a = MakeSignature({{ScanElementType::kI32, CompareOp::kEq}});
  const auto b = MakeSignature({{ScanElementType::kI32, CompareOp::kNe}});
  const auto c = MakeSignature({{ScanElementType::kI64, CompareOp::kEq}});
  const auto d = MakeSignature({{ScanElementType::kI32, CompareOp::kEq}},
                               256);
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  EXPECT_NE(a.CacheKey(), c.CacheKey());
  EXPECT_NE(a.CacheKey(), d.CacheKey());
}

TEST(CodegenTest, RejectsEmptyAndOversizedChains) {
  EXPECT_FALSE(GenerateFusedScanSource(MakeSignature({})).ok());
  JitScanSignature too_long;
  too_long.stages.assign(kMaxScanStages + 1,
                         {ScanElementType::kI32, CompareOp::kEq});
  EXPECT_FALSE(GenerateFusedScanSource(too_long).ok());
}

TEST(CodegenTest, RejectsInvalidWidth) {
  auto signature = MakeSignature({{ScanElementType::kI32, CompareOp::kEq}});
  signature.register_bits = 333;
  EXPECT_FALSE(GenerateFusedScanSource(signature).ok());
}

TEST(CodegenTest, EmitsExpectedIntrinsicsFor512) {
  const auto source = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq},
                     {ScanElementType::kI32, CompareOp::kEq}}));
  ASSERT_TRUE(source.ok());
  // The Fig. 3 instruction classes must all appear.
  EXPECT_NE(source->find("_mm512_mask_cmp_epi32_mask"), std::string::npos);
  EXPECT_NE(source->find("_mm512_maskz_compress_epi32"), std::string::npos);
  EXPECT_NE(source->find("_mm512_mask_expand_epi32"), std::string::npos);
  EXPECT_NE(source->find("_mm512_mask_i32gather_epi32"), std::string::npos);
  EXPECT_NE(source->find("_mm512_mask_compressstoreu_epi32"),
            std::string::npos);
  EXPECT_NE(source->find(kJitScanSymbol), std::string::npos);
  // No 256/128-bit spellings may leak into a 512-bit operator.
  EXPECT_EQ(source->find("_mm256_"), std::string::npos);
}

TEST(CodegenTest, EmitsNarrowWidths) {
  const auto source128 = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq},
                     {ScanElementType::kI32, CompareOp::kEq}},
                    128));
  ASSERT_TRUE(source128.ok());
  EXPECT_NE(source128->find("_mm_mask_cmp_epi32_mask"), std::string::npos);
  EXPECT_NE(source128->find("_mm_mmask_i32gather_epi32"),
            std::string::npos);
  EXPECT_EQ(source128->find("_mm512_"), std::string::npos);

  const auto source256 = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq}}, 256));
  ASSERT_TRUE(source256.ok());
  EXPECT_NE(source256->find("_mm256_mask_cmp_epi32_mask"),
            std::string::npos);
}

TEST(CodegenTest, ComparatorSelectsImmediate) {
  const auto lt = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kI32, CompareOp::kLt}}));
  EXPECT_NE(lt->find("_MM_CMPINT_LT"), std::string::npos);
  const auto ge = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kU32, CompareOp::kGe}}));
  EXPECT_NE(ge->find("_MM_CMPINT_NLT"), std::string::npos);
  EXPECT_NE(ge->find("cmp_epu32"), std::string::npos);
}

TEST(CodegenTest, FloatUsesOrderedImmediates) {
  const auto source = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kF32, CompareOp::kGe},
                     {ScanElementType::kF64, CompareOp::kNe}}));
  ASSERT_TRUE(source.ok());
  EXPECT_NE(source->find("_CMP_GE_OS"), std::string::npos);
  EXPECT_NE(source->find("_CMP_NEQ_UQ"), std::string::npos);
  EXPECT_NE(source->find("_mm512_castsi512_ps"), std::string::npos);
  EXPECT_NE(source->find("_mm512_castsi512_pd"), std::string::npos);
}

TEST(CodegenTest, SixtyFourBitGathersSplitIndexList) {
  // Section V: a 64-bit column behind a 32-bit position list needs two
  // half-width gathers.
  const auto source = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq},
                     {ScanElementType::kI64, CompareOp::kEq}}));
  ASSERT_TRUE(source.ok());
  EXPECT_NE(source->find("_mm512_mask_i32gather_epi64"), std::string::npos);
  EXPECT_NE(source->find("_mm512_castsi512_si256"), std::string::npos);
  EXPECT_NE(source->find("_mm512_extracti64x4_epi64"), std::string::npos);
}

TEST(CodegenTest, SingleStageSkipsAccumulators) {
  const auto source = GenerateFusedScanSource(
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq}}));
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->find("acc1"), std::string::npos);
  EXPECT_EQ(source->find("push_1"), std::string::npos);
  EXPECT_NE(source->find("_mm512_mask_compressstoreu_epi32"),
            std::string::npos);
}

TEST(CodegenTest, PackedStageEmitsUnpackSequence) {
  auto signature = MakeSignature({{ScanElementType::kI32, CompareOp::kEq},
                                  {ScanElementType::kU32, CompareOp::kLe}});
  signature.stages[1].packed_bits = 7;
  EXPECT_EQ(signature.CacheKey(), "512:i32=;u32<=@7");
  const auto source = GenerateFusedScanSource(signature);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  // The Future-Work dataflow: multiply to bit offsets, byte-granular
  // window gather (scale 1), variable 64-bit shift, code mask.
  EXPECT_NE(source->find("_mm512_mullo_epi32"), std::string::npos);
  EXPECT_NE(source->find("col1, 1)"), std::string::npos);
  EXPECT_NE(source->find("_mm512_srlv_epi64"), std::string::npos);
  EXPECT_NE(source->find("127LL"), std::string::npos);  // (1<<7)-1.
  EXPECT_NE(source->find("_mm512_mask_cmp_epu64_mask"), std::string::npos);
}

// SELECT COUNT(*) compiles as an aggregate signature whose only term is
// COUNT: the generated loop popcounts the final mask and never stores a
// position.
TEST(CodegenTest, CountOnlySkipsCompressStore) {
  auto signature =
      MakeSignature({{ScanElementType::kI32, CompareOp::kEq},
                     {ScanElementType::kI32, CompareOp::kEq}});
  signature.aggs = {{AggOp::kCount}};
  EXPECT_EQ(signature.CacheKey(), "512:i32=;i32=#agg:COUNTi32s");
  const auto source = GenerateFusedScanSource(signature);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->find("compressstoreu"), std::string::npos);
  EXPECT_NE(source->find("__builtin_popcount"), std::string::npos);
  EXPECT_NE(source->find("accs[0].count += "), std::string::npos);

  // Single-predicate count: also storeless.
  auto single = MakeSignature({{ScanElementType::kI32, CompareOp::kEq}});
  single.aggs = {{AggOp::kCount}};
  const auto single_source = GenerateFusedScanSource(single);
  ASSERT_TRUE(single_source.ok()) << single_source.status().ToString();
  EXPECT_EQ(single_source->find("compressstoreu"), std::string::npos);
  EXPECT_NE(single_source->find("__builtin_popcount"), std::string::npos);
}

TEST(CodegenTest, PackedValidation) {
  auto bad_type = MakeSignature({{ScanElementType::kI64, CompareOp::kEq}});
  bad_type.stages[0].packed_bits = 7;
  EXPECT_FALSE(GenerateFusedScanSource(bad_type).ok());
  auto bad_width = MakeSignature({{ScanElementType::kU32, CompareOp::kEq}});
  bad_width.stages[0].packed_bits = 27;
  EXPECT_FALSE(GenerateFusedScanSource(bad_width).ok());
}

}  // namespace
}  // namespace fts
