// Tail-handling regressions. The vectorized kernels process 16 (32-bit
// lanes at 512 bits) or 8 rows per iteration and finish the remainder in
// a masked epilogue; the bit-packed unpack path additionally windows the
// code stream through 64-bit loads. This file pins the awkward shapes:
// empty tables, chunks of 1/15/17 rows, chunk tails created by odd chunk
// sizes, and packed code runs that straddle 64-bit word boundaries —
// across every engine, the JIT, and the parallel path.

#include <gtest/gtest.h>

#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

constexpr ScanEngine kStaticEngines[] = {
    ScanEngine::kSisdNoVec,     ScanEngine::kSisdAutoVec,
    ScanEngine::kScalarFused,   ScanEngine::kAvx2Fused128,
    ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
    ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise};

bool JitUsable() {
#if defined(__SANITIZE_THREAD__)
  return false;  // dlopen'd operators are invisible to TSan.
#else
  return GetCpuFeatures().HasFusedScanAvx512();
#endif
}

// Runs `spec` through every available engine at 1 thread (static rungs,
// JIT when usable) and at 2 threads, and checks each against the
// chunk-loop SISD reference, position for position.
void ExpectAllEnginesAgree(const TablePtr& table, const ScanSpec& spec,
                           const std::string& what) {
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok()) << what << ": " << scanner.status().ToString();
  const auto reference = testing::ReferenceScan(*scanner);
  ASSERT_TRUE(reference.ok()) << what;

  const auto check = [&](const TableMatches& got, const std::string& who) {
    ASSERT_EQ(got.chunks.size(), reference->chunks.size()) << what;
    for (size_t i = 0; i < reference->chunks.size(); ++i) {
      ASSERT_EQ(got.chunks[i].positions, reference->chunks[i].positions)
          << what << " engine=" << who << " chunk=" << i;
    }
  };

  for (const ScanEngine engine : kStaticEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const ParallelScanOptions options = testing::StrictOptions({engine, 0});
    const auto matches = ExecuteParallelScan(*scanner, options);
    ASSERT_TRUE(matches.ok())
        << what << " " << ScanEngineToString(engine) << ": "
        << matches.status().ToString();
    check(*matches, ScanEngineToString(engine));
    const auto count = ExecuteParallelScanCount(*scanner, options);
    ASSERT_TRUE(count.ok());
    uint64_t reference_total = 0;
    for (const auto& chunk : reference->chunks) {
      reference_total += chunk.positions.size();
    }
    EXPECT_EQ(*count, reference_total)
        << what << " " << ScanEngineToString(engine);
  }

  if (JitUsable()) {
    const auto matches =
        ExecuteParallelScan(*scanner, testing::JitOptions(512));
    ASSERT_TRUE(matches.ok()) << what << ": " << matches.status().ToString();
    check(*matches, "jit512");
  }

  ParallelScanOptions options;
  options.requested = {ScanEngine::kScalarFused, 0};
  options.fallback = FallbackPolicy::kStrict;
  options.threads = 2;
  const auto parallel = ExecuteParallelScan(*scanner, options);
  ASSERT_TRUE(parallel.ok()) << what;
  check(*parallel, "parallel");
}

// A single-column int32 table with `rows` rows, values cycling 0..6, cut
// into chunks of `chunk_size` (0 = one chunk).
TablePtr CyclicTable(size_t rows, size_t chunk_size) {
  TableBuilder builder({{"c0", DataType::kInt32}},
                       chunk_size == 0 ? (rows == 0 ? 1 : rows)
                                       : chunk_size);
  for (size_t r = 0; r < rows; ++r) {
    FTS_CHECK(
        builder.AppendRow({Value(static_cast<int32_t>(r % 7))}).ok());
  }
  return builder.Build();
}

ScanSpec LessThanSpec(int32_t bound) {
  ScanSpec spec;
  spec.predicates.push_back({"c0", CompareOp::kLt, Value(bound)});
  return spec;
}

TEST(ScanTailTest, EmptyTableReturnsNoChunks) {
  const TablePtr table = CyclicTable(0, 0);
  ASSERT_EQ(table->chunk_count(), 0u);
  const ScanSpec spec = LessThanSpec(3);

  for (const ScanEngine engine : kStaticEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const auto matches = testing::ScanWith(table, spec, engine);
    ASSERT_TRUE(matches.ok()) << ScanEngineToString(engine);
    EXPECT_TRUE(matches->chunks.empty()) << ScanEngineToString(engine);
    const auto count = testing::CountWith(table, spec, engine);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 0u);
  }
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());
  if (JitUsable()) {
    const auto matches =
        ExecuteParallelScan(*scanner, testing::JitOptions(512));
    ASSERT_TRUE(matches.ok());
    EXPECT_TRUE(matches->chunks.empty());
  }
  ParallelScanOptions options;
  options.requested = {ScanEngine::kScalarFused, 0};
  options.threads = 2;
  const auto parallel = ExecuteParallelScan(*scanner, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->chunks.empty());
}

TEST(ScanTailTest, SubRegisterRowCounts) {
  // 1, 15, 17 are the canonical off-by-one shapes around the 16-lane
  // width; 0-row chunks cannot be built row-wise, so the empty case lives
  // in EmptyTableReturnsNoChunks above.
  for (const size_t rows : {size_t{1}, size_t{15}, size_t{17}}) {
    ExpectAllEnginesAgree(CyclicTable(rows, 0), LessThanSpec(3),
                          StrFormat("rows=%zu", rows));
    // All rows match / no rows match — the masked epilogue must neither
    // drop nor invent positions.
    ExpectAllEnginesAgree(CyclicTable(rows, 0), LessThanSpec(100),
                          StrFormat("rows=%zu all-match", rows));
    ExpectAllEnginesAgree(CyclicTable(rows, 0), LessThanSpec(-1),
                          StrFormat("rows=%zu none-match", rows));
  }
}

TEST(ScanTailTest, OddChunkTails) {
  // 100 rows in chunks of 17: six full chunks plus a 15-row tail chunk.
  ExpectAllEnginesAgree(CyclicTable(100, 17), LessThanSpec(4),
                        "rows=100 chunk=17");
  // 33 rows in chunks of 16: tail chunk of exactly one row.
  ExpectAllEnginesAgree(CyclicTable(33, 16), LessThanSpec(4),
                        "rows=33 chunk=16");
}

// Bit-packed columns whose code runs cross 64-bit word boundaries. A
// width-w code stream puts code i at bit offset i*w; whenever 64 % w != 0
// some code straddles two words and the kernels' 8-byte window loads must
// reassemble it. Cardinality c gives width ceil(log2(c)).
TEST(ScanTailTest, BitpackedRunsCrossWordBoundaries) {
  struct Shape {
    size_t cardinality;  // -> bit width
    size_t rows;
  };
  // Widths 2, 3, 5, 7 (cardinalities 3, 5, 17, 100); rows straddle the
  // first and second 64-bit word for each width.
  const Shape shapes[] = {{3, 65}, {5, 43}, {5, 64}, {17, 26},
                          {17, 129}, {100, 19}, {100, 127}};
  for (const Shape& shape : shapes) {
    TableBuilder builder({{"c0", DataType::kInt32}}, shape.rows);
    builder.SetBitPacked(0);
    for (size_t r = 0; r < shape.rows; ++r) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(
                        r % shape.cardinality))})
                    .ok());
    }
    const TablePtr table = builder.Build();
    const int32_t mid = static_cast<int32_t>(shape.cardinality / 2);
    for (const CompareOp op : kAllCompareOps) {
      ScanSpec spec;
      spec.predicates.push_back({"c0", op, Value(mid)});
      ExpectAllEnginesAgree(
          table, spec,
          StrFormat("bitpacked card=%zu rows=%zu op=%d", shape.cardinality,
                    shape.rows, static_cast<int>(op)));
    }
  }
}

// Multi-predicate chains against bit-packed columns: the follow-up
// predicates extract *single* packed codes at gathered positions, the
// path the paper calls "the main challenge".
TEST(ScanTailTest, BitpackedFollowUpPredicatesAtWordBoundaries) {
  constexpr size_t kRows = 130;  // Crosses two word boundaries at width 5.
  TableBuilder builder(
      {{"c0", DataType::kInt32}, {"c1", DataType::kInt32}}, kRows);
  builder.SetBitPacked(0);
  builder.SetBitPacked(1);
  for (size_t r = 0; r < kRows; ++r) {
    FTS_CHECK(builder
                  .AppendRow({Value(static_cast<int32_t>(r % 17)),
                              Value(static_cast<int32_t>((r * 3) % 17))})
                  .ok());
  }
  const TablePtr table = builder.Build();
  ScanSpec spec;
  spec.predicates.push_back({"c0", CompareOp::kGe, Value(int32_t{5})});
  spec.predicates.push_back({"c1", CompareOp::kLt, Value(int32_t{12})});
  ExpectAllEnginesAgree(table, spec, "bitpacked follow-up");
}

}  // namespace
}  // namespace fts
