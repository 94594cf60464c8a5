// Aggregate-pushdown equivalence suite. The fused aggregate kernels fold
// survivors straight out of the compare mask — this file pins the edges
// where that fold differs most from the materialize-then-aggregate path:
//
//   * widening: SUM over INT32_MAX/UINT32_MAX-heavy columns must
//     accumulate in 64-bit lanes (a 32-bit lane sum would wrap long
//     before the finalizer sees it);
//   * mask extremes: 64-row runs of all-match / no-match rows drive the
//     16-lane kernels through all-ones and all-zero survivor masks, and
//     chunk-aligned runs drive the zone-map shortcut paths (impossible
//     chunks, tautological chunks answered without a scan);
//   * encodings: dictionary and bit-packed aggregate columns take the
//     scalar decode fold inside the SIMD kernels and demote the JIT rung;
//   * a differential fuzzer arm: random tables/predicates/terms, every
//     engine and the 1/2/4-thread morsel path against the
//     materialize-then-fold scalar reference (FoldRowScalar over the SISD
//     position list — the semantic reference named in agg_spec.h).
//
// Integer accumulators must match the reference bit-for-bit; float SUMs
// may differ in association (vector tree-fold vs scalar left fold), so
// sum_double alone gets a relative tolerance. Per engine, the parallel
// path must be byte-identical to the serial path at every thread count.
//
// Failures print a replay command; FTS_TEST_SEED=<seed> reruns one case.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/fault_injection.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/db/database.h"
#include "fts/exec/parallel_scan.h"
#include "fts/jit/compiler_driver.h"
#include "fts/scan/table_scan.h"
#include "fts/simd/agg_spec.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

constexpr const char* kBinary = "agg_pushdown_test";

constexpr ScanEngine kAllEngines[] = {
    ScanEngine::kSisdNoVec,     ScanEngine::kSisdAutoVec,
    ScanEngine::kScalarFused,   ScanEngine::kAvx2Fused128,
    ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
    ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise,
};

// One engine's aggregate pushdown on the morsel executor (1 thread,
// kStrict: exactly `engine`, no ladder).
StatusOr<TableScanner::AggResult> AggregateWith(const TableScanner& scanner,
                                                ScanEngine engine) {
  return ExecuteParallelScanAggregate(scanner,
                                      testing::StrictOptions({engine, 0}));
}

// Materialize-then-fold reference: the chunk-loop SISD position list
// (testing::ReferenceScan), then FoldRowScalar
// per matching row, partials merged in chunk order — the exact dataflow
// the pushdown replaces.
TableScanner::AggResult FoldReference(const TableScanner& scanner) {
  const auto matches = testing::ReferenceScan(scanner);
  FTS_CHECK(matches.ok());
  TableScanner::AggResult result;
  result.accumulators.resize(scanner.num_agg_terms());
  result.matched = matches->TotalMatches();
  for (const auto& chunk : matches->chunks) {
    const TableScanner::ChunkPlan& plan =
        scanner.chunk_plans()[chunk.chunk_id];
    std::vector<AggAccumulator> partial(scanner.num_agg_terms());
    for (const ChunkOffset position : chunk.positions) {
      for (size_t t = 0; t < plan.agg_terms.size(); ++t) {
        FoldRowScalar(plan.agg_terms[t], position, partial[t]);
      }
    }
    for (size_t t = 0; t < partial.size(); ++t) {
      result.accumulators[t].Merge(partial[t]);
    }
  }
  return result;
}

// Field-by-field accumulator comparison. Integer fields (count, sum_bits,
// min/max in all three domains) must be exact on every path; sum_double is
// the one field where fold association legitimately differs between the
// scalar reference and the vector tree-folds.
void ExpectAggEqual(const TableScanner::AggResult& reference,
                    const TableScanner::AggResult& got,
                    const std::string& context) {
  EXPECT_EQ(reference.matched, got.matched) << context;
  ASSERT_EQ(reference.accumulators.size(), got.accumulators.size())
      << context;
  for (size_t t = 0; t < reference.accumulators.size(); ++t) {
    const AggAccumulator& want = reference.accumulators[t];
    const AggAccumulator& have = got.accumulators[t];
    const std::string where = StrFormat("%s term=%zu", context.c_str(), t);
    EXPECT_EQ(want.count, have.count) << where;
    EXPECT_EQ(want.sum_bits, have.sum_bits) << where;
    EXPECT_EQ(want.min_i, have.min_i) << where;
    EXPECT_EQ(want.max_i, have.max_i) << where;
    EXPECT_EQ(want.min_u, have.min_u) << where;
    EXPECT_EQ(want.max_u, have.max_u) << where;
    EXPECT_EQ(want.min_d, have.min_d) << where;
    EXPECT_EQ(want.max_d, have.max_d) << where;
    const double scale =
        std::max({1.0, std::abs(want.sum_double), std::abs(have.sum_double)});
    EXPECT_NEAR(want.sum_double, have.sum_double, 1e-9 * scale) << where;
  }
}

// Byte-identical comparison for the thread-determinism guarantee: same
// engine, different worker counts, no tolerance anywhere.
void ExpectAggBytesIdentical(const TableScanner::AggResult& a,
                             const TableScanner::AggResult& b,
                             const std::string& context) {
  EXPECT_EQ(a.matched, b.matched) << context;
  ASSERT_EQ(a.accumulators.size(), b.accumulators.size()) << context;
  for (size_t t = 0; t < a.accumulators.size(); ++t) {
    EXPECT_EQ(std::memcmp(&a.accumulators[t], &b.accumulators[t],
                          sizeof(AggAccumulator)),
              0)
        << context << " term=" << t;
  }
}

// SUM over columns saturated with 32-bit extremes: the total exceeds any
// 32-bit lane by orders of magnitude, so a kernel summing in lane width
// would wrap visibly. Covers the signed (i32 sign-extended into i64
// lanes) and unsigned (u32 zero-extended) widening rules.
TEST(AggPushdownEdgeTest, SumWidensPastThirtyTwoBits) {
  constexpr size_t kRows = 4103;  // Awkward: 16-lane tail of 7.
  TableBuilder builder({{"flag", DataType::kInt32},
                        {"big", DataType::kInt32},
                        {"ubig", DataType::kUInt32}});
  size_t matched = 0;
  for (size_t r = 0; r < kRows; ++r) {
    const int32_t flag = static_cast<int32_t>(r % 2);
    matched += flag == 1;
    ASSERT_TRUE(builder
                    .AppendRow({Value(flag), Value(INT32_MAX),
                                Value(UINT32_MAX)})
                    .ok());
  }
  const TablePtr table = builder.Build();

  ScanSpec spec;
  spec.predicates = {{"flag", CompareOp::kEq, Value(int32_t{1})}};
  spec.aggregates = {{AggOp::kSum, "big"}, {AggOp::kSum, "ubig"},
                     {AggOp::kMax, "big"}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());

  const int64_t expected_sum =
      static_cast<int64_t>(matched) * INT32_MAX;
  const uint64_t expected_usum =
      static_cast<uint64_t>(matched) * UINT32_MAX;
  ASSERT_GT(expected_sum, int64_t{INT32_MAX});  // Wraps a 32-bit lane.

  for (const ScanEngine engine : kAllEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const auto result = AggregateWith(*scanner, engine);
    ASSERT_TRUE(result.ok()) << ScanEngineToString(engine);
    EXPECT_EQ(result->matched, matched) << ScanEngineToString(engine);
    EXPECT_EQ(static_cast<int64_t>(result->accumulators[0].sum_bits),
              expected_sum)
        << ScanEngineToString(engine);
    EXPECT_EQ(result->accumulators[1].sum_bits, expected_usum)
        << ScanEngineToString(engine);
    EXPECT_EQ(result->accumulators[2].max_i, int64_t{INT32_MAX})
        << ScanEngineToString(engine);
  }
}

// 64-row runs of all-match / no-match rows inside one chunk: every 16-lane
// survivor mask the kernels see is either all-ones or all-zero, the two
// extremes of the masked fold (zone maps cannot drop the stage — the
// chunk holds both values).
TEST(AggPushdownEdgeTest, ZeroAndFullSurvivorMasks) {
  constexpr size_t kRows = 1024;
  TableBuilder builder({{"c0", DataType::kInt32}, {"v", DataType::kInt32}});
  int64_t expected_sum = 0;
  size_t matched = 0;
  for (size_t r = 0; r < kRows; ++r) {
    const int32_t c0 = (r / 64) % 2 == 0 ? 1 : 0;
    const int32_t v = static_cast<int32_t>(r);
    if (c0 == 1) {
      expected_sum += v;
      ++matched;
    }
    ASSERT_TRUE(builder.AppendRow({Value(c0), Value(v)}).ok());
  }
  const TablePtr table = builder.Build();

  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kEq, Value(int32_t{1})}};
  spec.aggregates = {{AggOp::kSum, "v"}, {AggOp::kMin, "v"},
                     {AggOp::kMax, "v"}, {AggOp::kCount, ""}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());

  for (const ScanEngine engine : kAllEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const auto result = AggregateWith(*scanner, engine);
    ASSERT_TRUE(result.ok()) << ScanEngineToString(engine);
    EXPECT_EQ(result->matched, matched) << ScanEngineToString(engine);
    EXPECT_EQ(static_cast<int64_t>(result->accumulators[0].sum_bits),
              expected_sum)
        << ScanEngineToString(engine);
    EXPECT_EQ(result->accumulators[1].min_i, 0) << ScanEngineToString(engine);
    EXPECT_EQ(result->accumulators[2].max_i, 959)  // Last row of run 14.
        << ScanEngineToString(engine);
    EXPECT_EQ(result->accumulators[3].count, matched)
        << ScanEngineToString(engine);
  }
}

// Chunk-aligned all-match / no-match runs: zone maps mark the no-match
// chunks impossible and drop the conjunct from the all-match chunks. The
// MIN/MAX/COUNT-only spec is then answered per chunk from zone maps alone
// (agg_zone_shortcut); adding a SUM forces the stage-free scan through
// the kernels' num_stages == 0 path. Both must agree with the reference.
TEST(AggPushdownEdgeTest, ZoneShortcutAndStageFreeChunks) {
  constexpr size_t kChunkRows = 128;
  constexpr size_t kChunks = 8;
  TableBuilder builder({{"c0", DataType::kInt32}, {"v", DataType::kInt32}},
                       kChunkRows);
  for (size_t r = 0; r < kChunkRows * kChunks; ++r) {
    const int32_t c0 = (r / kChunkRows) % 2 == 0 ? 1 : 0;
    ASSERT_TRUE(
        builder.AppendRow({Value(c0), Value(static_cast<int32_t>(r))}).ok());
  }
  const TablePtr table = builder.Build();

  for (const bool with_sum : {false, true}) {
    ScanSpec spec;
    spec.predicates = {{"c0", CompareOp::kEq, Value(int32_t{1})}};
    spec.aggregates = {{AggOp::kMin, "v"}, {AggOp::kMax, "v"},
                       {AggOp::kCount, ""}};
    if (with_sum) spec.aggregates.push_back({AggOp::kSum, "v"});
    const auto scanner = TableScanner::Prepare(table, spec);
    ASSERT_TRUE(scanner.ok());

    // Zone maps prove every chunk one way or the other.
    size_t impossible = 0, shortcut = 0;
    for (const TableScanner::ChunkPlan& plan : scanner->chunk_plans()) {
      impossible += plan.impossible;
      shortcut += plan.agg_zone_shortcut;
    }
    EXPECT_EQ(impossible, kChunks / 2);
    // SUM disables the shortcut (zone maps hold no sums); without it every
    // runnable chunk is answered from its zone map.
    EXPECT_EQ(shortcut, with_sum ? 0u : kChunks / 2);

    const TableScanner::AggResult reference = FoldReference(*scanner);
    for (const ScanEngine engine : kAllEngines) {
      if (!ScanEngineAvailable(engine)) continue;
      const auto result = AggregateWith(*scanner, engine);
      ASSERT_TRUE(result.ok()) << ScanEngineToString(engine);
      ExpectAggEqual(reference, *result,
                     StrFormat("%s with_sum=%d", ScanEngineToString(engine),
                               with_sum));
    }
  }
}

// Dictionary-encoded and bit-packed aggregate columns: the SIMD kernels
// fold these through the scalar decode path, and the JIT rung must refuse
// the signature and let the ladder demote — with identical results.
TEST(AggPushdownEdgeTest, DictionaryAndBitPackedTerms) {
  constexpr size_t kRows = 777;
  TableBuilder builder({{"c0", DataType::kInt32},
                        {"dict", DataType::kInt64},
                        {"packed", DataType::kInt32}},
                       /*chunk_size=*/256);
  builder.SetDictionaryEncoded(1);
  builder.SetBitPacked(2);
  Xoshiro256 rng(0xD1C7);
  for (size_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(
        builder
            .AppendRow({Value(static_cast<int32_t>(rng.NextBounded(3))),
                        Value(static_cast<int64_t>(rng.NextBounded(5)) *
                                  1000000007LL -
                              2000000014LL),
                        Value(static_cast<int32_t>(rng.NextBounded(7)))})
            .ok());
  }
  const TablePtr table = builder.Build();

  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kLe, Value(int32_t{1})}};
  spec.aggregates = {{AggOp::kSum, "dict"}, {AggOp::kMin, "dict"},
                     {AggOp::kSum, "packed"}, {AggOp::kMax, "packed"}};
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok());

  const TableScanner::AggResult reference = FoldReference(*scanner);
  ASSERT_GT(reference.matched, 0u);
  for (const ScanEngine engine : kAllEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const auto result = AggregateWith(*scanner, engine);
    ASSERT_TRUE(result.ok()) << ScanEngineToString(engine);
    ExpectAggEqual(reference, *result, ScanEngineToString(engine));
  }

#if !defined(__SANITIZE_THREAD__)
  // The JIT engine ladder-demotes every morsel (generated aggregate loops
  // only handle plain terms) but must still return the same result.
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    ExecutionReport report;
    const auto result = ExecuteParallelScanAggregate(
        *scanner, testing::JitOptions(512), &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectAggEqual(reference, *result, "jit512(dict/packed)");
    EXPECT_TRUE(report.degraded) << report.ToString();
  }
#endif
}

// ---------------------------------------------------------------------
// Differential fuzzer arm.
// ---------------------------------------------------------------------

constexpr size_t kAwkwardRows[] = {1, 2, 7, 15, 16, 17, 31, 33,
                                   63, 64, 65, 100, 127, 129, 1000};

// `for_data` excludes the huge float magnitudes from generated *rows*:
// summing ±1e300 absorbs every small addend, so any fold-association
// change (scalar left fold vs SIMD tree fold) shifts the total by the
// absorbed values and no principled tolerance exists. Data restricted to
// halves keeps every double sum exact, making cross-engine comparison
// meaningful; predicate literals still draw the huge edges.
Value RandomLiteral(DataType type, Xoshiro256& rng, bool for_data = false) {
  const bool boundary = rng.NextBounded(8) == 0;
  const int64_t small = static_cast<int64_t>(rng.NextBounded(20)) - 10;
  switch (type) {
    case DataType::kInt32:
      if (boundary) {
        constexpr int32_t kEdges[] = {INT32_MIN, INT32_MIN + 1, -1, 0,
                                      INT32_MAX - 1, INT32_MAX};
        return Value(kEdges[rng.NextBounded(6)]);
      }
      return Value(static_cast<int32_t>(small));
    case DataType::kInt64:
      if (boundary) {
        constexpr int64_t kEdges[] = {INT64_MIN, INT64_MIN + 1, -1, 0,
                                      INT64_MAX - 1, INT64_MAX};
        return Value(kEdges[rng.NextBounded(6)]);
      }
      return Value(small * 1000000007LL);
    case DataType::kUInt32:
      if (boundary) {
        constexpr uint32_t kEdges[] = {0, 1, UINT32_MAX - 1, UINT32_MAX};
        return Value(kEdges[rng.NextBounded(4)]);
      }
      return Value(static_cast<uint32_t>(small + 10));
    case DataType::kFloat64:
      if (boundary && !for_data) {
        constexpr double kEdges[] = {-1e300, -0.0, 0.0, 1e300};
        return Value(kEdges[rng.NextBounded(4)]);
      }
      if (boundary) return Value(rng.NextBounded(2) == 0 ? -0.0 : 0.0);
      return Value(static_cast<double>(small) / 2.0);
    default:
      return Value(static_cast<int32_t>(small));
  }
}

struct FuzzCase {
  TablePtr table;
  ScanSpec spec;
};

// Random table + predicates + aggregate terms. Mirrors the structure of
// differential_test's generator, then draws 1-4 terms over random columns
// (COUNT terms column-less) — mixed encodings included, so dictionary and
// bit-packed folds and the JIT demotion path all come up across seeds.
FuzzCase MakeAggCase(uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzCase result;

  const size_t rows = rng.NextBounded(2) == 0
                          ? kAwkwardRows[rng.NextBounded(
                                std::size(kAwkwardRows))]
                          : rng.NextBounded(4000) + 1;
  const size_t num_columns = rng.NextBounded(4) + 1;
  const DataType kTypes[] = {DataType::kInt32, DataType::kInt64,
                             DataType::kUInt32, DataType::kFloat64};

  std::vector<ColumnDefinition> schema;
  for (size_t c = 0; c < num_columns; ++c) {
    schema.push_back({StrFormat("c%zu", c), kTypes[rng.NextBounded(4)]});
  }
  const size_t chunk_size = rng.NextBounded(2) == 0
                                ? rng.NextBounded(rows) + 1
                                : rows;
  TableBuilder builder(schema, chunk_size);
  std::vector<bool> narrow(num_columns, false);
  for (size_t c = 0; c < num_columns; ++c) {
    const uint64_t encoding = rng.NextBounded(4);
    if (encoding == 0) builder.SetDictionaryEncoded(c);
    if (encoding == 1) builder.SetBitPacked(c);
    // Narrow columns keep chunk dictionaries tiny so zone maps routinely
    // prune chunks or drop conjuncts — the shortcut paths above, now under
    // random shapes.
    narrow[c] = rng.NextBounded(3) == 0;
  }

  std::vector<Value> row(num_columns, Value(int32_t{0}));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      if (narrow[c]) {
        const int64_t pick = static_cast<int64_t>(rng.NextBounded(3)) * 5 - 5;
        switch (schema[c].type) {
          case DataType::kInt64:
            row[c] = Value(pick * 1000000007LL);
            break;
          case DataType::kUInt32:
            row[c] = Value(static_cast<uint32_t>(pick + 5));
            break;
          case DataType::kFloat64:
            row[c] = Value(static_cast<double>(pick) / 2.0);
            break;
          default:
            row[c] = Value(static_cast<int32_t>(pick));
            break;
        }
      } else {
        row[c] = RandomLiteral(schema[c].type, rng, /*for_data=*/true);
      }
    }
    FTS_CHECK(builder.AppendRow(row).ok());
  }
  result.table = builder.Build();

  const size_t num_predicates = rng.NextBounded(4);  // 0-3: no-WHERE too.
  for (size_t p = 0; p < num_predicates; ++p) {
    const size_t column = rng.NextBounded(num_columns);
    PredicateSpec predicate;
    predicate.column = schema[column].name;
    predicate.op = kAllCompareOps[rng.NextBounded(6)];
    predicate.value = RandomLiteral(schema[column].type, rng);
    result.spec.predicates.push_back(predicate);
  }

  const size_t num_terms = rng.NextBounded(4) + 1;
  constexpr AggOp kOps[] = {AggOp::kCount, AggOp::kSum, AggOp::kMin,
                            AggOp::kMax};
  for (size_t t = 0; t < num_terms; ++t) {
    const AggOp op = kOps[rng.NextBounded(4)];
    AggregateSpec term;
    term.op = op;
    if (op != AggOp::kCount) {
      term.column = schema[rng.NextBounded(num_columns)].name;
    }
    result.spec.aggregates.push_back(term);
  }
  return result;
}

class AggPushdownDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

// Every static engine's pushed-down accumulators match the
// materialize-then-fold reference.
TEST_P(AggPushdownDifferentialTest, EnginesMatchMaterializeReference) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeAggCase(seed);
  const auto scanner = TableScanner::Prepare(fuzz.table, fuzz.spec);
  if (!scanner.ok()) return;  // Non-representable literal.

  const TableScanner::AggResult reference = FoldReference(*scanner);
  for (const ScanEngine engine : kAllEngines) {
    if (!ScanEngineAvailable(engine)) continue;
    const auto result = AggregateWith(*scanner, engine);
    ASSERT_TRUE(result.ok())
        << ScanEngineToString(engine) << ": " << result.status().ToString()
        << "\n" << testing::ReplayCommand(kBinary, seed);
    ExpectAggEqual(reference, *result,
                   StrFormat("%s seed=%llu spec=%s\n%s",
                             ScanEngineToString(engine),
                             static_cast<unsigned long long>(seed),
                             fuzz.spec.ToString().c_str(),
                             testing::ReplayCommand(kBinary, seed).c_str()));
  }
}

// The morsel-driven aggregate path is byte-identical across 1/2/4 threads
// for the same engine, and matches the reference.
TEST_P(AggPushdownDifferentialTest, ParallelPathByteIdentical) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeAggCase(seed);
  const auto scanner = TableScanner::Prepare(fuzz.table, fuzz.spec);
  if (!scanner.ok()) return;

  const TableScanner::AggResult reference = FoldReference(*scanner);
  const ScanEngine engines[] = {
      ScanEngine::kScalarFused,
      GetCpuFeatures().HasFusedScanAvx512() ? ScanEngine::kAvx512Fused512
                                            : ScanEngine::kSisdAutoVec};
  for (const ScanEngine engine : engines) {
    const auto serial = AggregateWith(*scanner, engine);
    ASSERT_TRUE(serial.ok()) << testing::ReplayCommand(kBinary, seed);
    ExpectAggEqual(reference, *serial,
                   StrFormat("serial(%s) seed=%llu\n%s",
                             ScanEngineToString(engine),
                             static_cast<unsigned long long>(seed),
                             testing::ReplayCommand(kBinary, seed).c_str()));
    for (const int threads : {1, 2, 4}) {
      ParallelScanOptions options;
      options.requested = {engine, 0};
      options.fallback = FallbackPolicy::kStrict;
      options.threads = threads;
      ExecutionReport report;
      const auto parallel =
          ExecuteParallelScanAggregate(*scanner, options, &report);
      ASSERT_TRUE(parallel.ok())
          << parallel.status().ToString() << "\n"
          << testing::ReplayCommand(kBinary, seed);
      ExpectAggBytesIdentical(
          *serial, *parallel,
          StrFormat("parallel(%s, threads=%d) seed=%llu spec=%s\n%s",
                    ScanEngineToString(engine), threads,
                    static_cast<unsigned long long>(seed),
                    fuzz.spec.ToString().c_str(),
                    testing::ReplayCommand(kBinary, seed).c_str()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggPushdownDifferentialTest,
                         ::testing::ValuesIn(testing::SeedRange(1, 49)));

// JIT rungs over a handful of seeds (one compiler invocation per distinct
// signature). Skipped under TSan: dlopen'd operators are uninstrumented.
class JitAggDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitAggDifferentialTest, JitMatchesMaterializeReference) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeAggCase(seed);
  const auto scanner = TableScanner::Prepare(fuzz.table, fuzz.spec);
  if (!scanner.ok()) return;

  const TableScanner::AggResult reference = FoldReference(*scanner);
  for (const int threads : {1, 2, 4}) {
    ParallelScanOptions options = testing::JitOptions(512);
    options.threads = threads;
    const auto parallel = ExecuteParallelScanAggregate(*scanner, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString() << "\n"
                               << testing::ReplayCommand(kBinary, seed);
    ExpectAggEqual(reference, *parallel,
                   StrFormat("parallel(jit512, threads=%d) seed=%llu "
                             "spec=%s\n%s",
                             threads,
                             static_cast<unsigned long long>(seed),
                             fuzz.spec.ToString().c_str(),
                             testing::ReplayCommand(kBinary, seed).c_str()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitAggDifferentialTest,
                         ::testing::ValuesIn(testing::SeedRange(200, 204)));

// Database-level differential: the full SQL path with pushdown on vs off
// renders value-identical rows for integer aggregates (the two arms share
// finalization types by design).
TEST(AggPushdownDatabaseTest, PushdownMatchesMaterializePath) {
  Database db;
  TableBuilder builder({{"k", DataType::kInt32}, {"v", DataType::kInt64}},
                       /*chunk_size=*/97);
  Xoshiro256 rng(0xDB5);
  for (size_t r = 0; r < 1000; ++r) {
    ASSERT_TRUE(
        builder
            .AppendRow({Value(static_cast<int32_t>(rng.NextBounded(100))),
                        Value(static_cast<int64_t>(rng.NextBounded(1u << 30)) -
                              (1 << 29))})
            .ok());
  }
  ASSERT_TRUE(db.RegisterTable("t", builder.Build()).ok());

  for (const char* sql :
       {"SELECT SUM(v), MIN(v), MAX(v), AVG(v), COUNT(*) FROM t WHERE k < 50",
        "SELECT SUM(v), COUNT(*) FROM t",
        "SELECT MIN(k), MAX(k) FROM t WHERE v >= 0 AND k >= 10"}) {
    Database::QueryOptions off;
    off.aggregate_pushdown = false;
    const auto expected = db.Query(sql, off);
    ASSERT_TRUE(expected.ok()) << sql;
    EXPECT_FALSE(expected->execution_report.aggregate_pushdown);

    for (const int threads : {1, 2, 4}) {
      Database::QueryOptions on;
      on.threads = threads;
      const auto result = db.Query(sql, on);
      ASSERT_TRUE(result.ok()) << sql;
      EXPECT_TRUE(result->execution_report.aggregate_pushdown) << sql;
      ASSERT_EQ(result->rows.size(), 1u);
      ASSERT_EQ(result->rows[0].size(), expected->rows[0].size());
      for (size_t i = 0; i < result->rows[0].size(); ++i) {
        EXPECT_EQ(ValueToString(result->rows[0][i]),
                  ValueToString(expected->rows[0][i]))
            << sql << " column " << i << " threads " << threads;
      }
    }
  }
}

// ---- SELECT COUNT(*) as a one-term pushdown ----

constexpr ColumnEncoding kCountEncodings[] = {
    ColumnEncoding::kPlain,     ColumnEncoding::kDictionary,
    ColumnEncoding::kBitPacked, ColumnEncoding::kRle,
    ColumnEncoding::kFor,       ColumnEncoding::kDelta};
constexpr size_t kCountRows = 4000;

// Value of column `c` at row `r` in the COUNT(*) table: runs of 8 equal
// values (RLE-friendly, small deltas) cycling through 0..39 in every
// chunk, so no zone map proves a `< 20` predicate either way.
int32_t CountCell(size_t c, size_t r) {
  return static_cast<int32_t>(((r / 8) * 7 + c * 3) % 40);
}

// One int32 column per encoding, named after it ("e_plain", "e_rle", ...),
// in 1000-row chunks.
TablePtr BuildCountTable() {
  std::vector<ColumnDefinition> schema;
  for (const ColumnEncoding encoding : kCountEncodings) {
    schema.push_back({StrFormat("e_%s", ColumnEncodingName(encoding)),
                      DataType::kInt32});
  }
  TableBuilder builder(schema, /*chunk_size=*/1000);
  for (size_t c = 0; c < std::size(kCountEncodings); ++c) {
    builder.SetEncoding(c, kCountEncodings[c]);
  }
  std::vector<Value> row(schema.size(), Value(int32_t{0}));
  for (size_t r = 0; r < kCountRows; ++r) {
    for (size_t c = 0; c < schema.size(); ++c) row[c] = Value(CountCell(c, r));
    FTS_CHECK(builder.AppendRow(row).ok());
  }
  return builder.Build();
}

struct CountQuery {
  std::string sql;
  uint64_t expected = 0;
  // The optimizer folds the conjunction to an EmptyResult plan: nothing is
  // scanned, so there is nothing to push an aggregate into.
  bool contradictory = false;
};

// A `< 20` WHERE on each encoding, no WHERE, and a contradictory WHERE,
// each with its brute-force count.
std::vector<CountQuery> CountQueries() {
  std::vector<CountQuery> queries;
  for (size_t c = 0; c < std::size(kCountEncodings); ++c) {
    CountQuery query;
    query.sql = StrFormat("SELECT COUNT(*) FROM t WHERE e_%s < 20",
                          ColumnEncodingName(kCountEncodings[c]));
    for (size_t r = 0; r < kCountRows; ++r) {
      if (CountCell(c, r) < 20) ++query.expected;
    }
    queries.push_back(std::move(query));
  }
  queries.push_back({"SELECT COUNT(*) FROM t", kCountRows, false});
  queries.push_back(
      {"SELECT COUNT(*) FROM t WHERE e_plain < 5 AND e_plain > 10", 0, true});
  return queries;
}

// COUNT(*) through the full SQL path with pushdown on vs off, on every
// static engine (plus JIT where it can run) at 1/2/4 threads: the count
// matches the oracle, and aggregate_pushdown is set exactly when pushdown
// is on and a scan ran. Every WHERE is one predicate, so the SISD engines
// plan a single step and push down too.
TEST(AggPushdownDatabaseTest, CountStarPushdownMatchesOracle) {
  Database db;
  const TablePtr table = BuildCountTable();
  for (size_t c = 0; c < std::size(kCountEncodings); ++c) {
    ASSERT_EQ(table->chunk(0).column(c).encoding(), kCountEncodings[c])
        << ColumnEncodingName(kCountEncodings[c]);
  }
  ASSERT_TRUE(db.RegisterTable("t", table).ok());

  std::vector<ScanEngine> engines;
  for (const ScanEngine engine : kAllEngines) {
    if (ScanEngineAvailable(engine)) engines.push_back(engine);
  }
#if !defined(__SANITIZE_THREAD__)
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    engines.push_back(ScanEngine::kJit);
  }
#endif

  for (const CountQuery& query : CountQueries()) {
    for (const ScanEngine engine : engines) {
      for (const int threads : {1, 2, 4}) {
        for (const bool pushdown : {false, true}) {
          Database::QueryOptions options;
          options.engine = engine;
          options.threads = threads;
          options.aggregate_pushdown = pushdown;
          const std::string where =
              StrFormat("%s engine=%s threads=%d pushdown=%d",
                        query.sql.c_str(), ScanEngineToString(engine),
                        threads, pushdown ? 1 : 0);
          const auto result = db.Query(query.sql, options);
          ASSERT_TRUE(result.ok()) << where << ": "
                                   << result.status().ToString();
          ASSERT_TRUE(result->count.has_value()) << where;
          EXPECT_EQ(*result->count, query.expected) << where;
          EXPECT_EQ(result->column_names,
                    std::vector<std::string>{"count"})
              << where;
          EXPECT_EQ(result->execution_report.aggregate_pushdown,
                    pushdown && !query.contradictory)
              << where;
        }
      }
    }
  }
}

// SELECT COUNT(*) pinned to JIT over an all-RLE chain compiles the
// counting run-coiteration operator: no demotion, and the compile (or the
// cache hit) shows in the report.
TEST(AggPushdownDatabaseTest, JitCountStarOverRleChainRunsCompiled) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  if (FaultInjection::Instance().AnyArmed()) {
    GTEST_SKIP() << "assertions not valid with FTS_FAULT armed";
  }
  const auto probe =
      JitCompiler().Compile("extern \"C\" int fts_probe() { return 0; }",
                            "fts_probe");
  if (!probe.ok()) {
    GTEST_SKIP() << "no usable JIT compiler: " << probe.status().ToString();
  }

  Database db;
  const TablePtr table = BuildCountTable();
  ASSERT_TRUE(db.RegisterTable("t", table).ok());
  const size_t rle = 3;
  ASSERT_EQ(kCountEncodings[rle], ColumnEncoding::kRle);
  uint64_t expected = 0;
  for (size_t r = 0; r < kCountRows; ++r) {
    const int32_t v = CountCell(rle, r);
    if (v < 20 && v != 7) ++expected;
  }
  const std::string sql =
      "SELECT COUNT(*) FROM t WHERE e_rle < 20 AND e_rle <> 7";
  for (const int threads : {1, 4}) {
    Database::QueryOptions options;
    options.engine = ScanEngine::kJit;
    options.threads = threads;
    const auto result = db.Query(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ExecutionReport& report = result->execution_report;
    ASSERT_TRUE(result->count.has_value());
    EXPECT_EQ(*result->count, expected) << "threads " << threads;
    EXPECT_TRUE(report.aggregate_pushdown);
    EXPECT_FALSE(report.degraded) << report.ToString();
    EXPECT_EQ(report.executed.engine, ScanEngine::kJit) << report.ToString();
    EXPECT_GT(report.jit_cache_hits + report.jit_cache_misses, 0u)
        << report.ToString();
    EXPECT_GT(report.rle_runs_classified, 0u) << report.ToString();
  }
}

}  // namespace
}  // namespace fts
