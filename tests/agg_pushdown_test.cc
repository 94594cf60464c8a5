// Aggregate-pushdown equivalence suite. The fused aggregate kernels fold
// survivors straight out of the compare mask, and the positions sink folds
// the chunks they cannot read — this file pins the edges where those
// folds differ most from a boxed row loop over materialized positions:
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
//   * a differential fuzzer arm: random tables (every encoding),
//     predicates and terms, every engine and the 1/2/4-thread morsel path
//     against the materialize-then-fold reference (boxed values over the
//     SISD position list, folded with the semantics named in agg_spec.h);
//   * the SQL level: every encoding and integer/float width, NaN, values
//     above 2^53, empty results, a 2-step SISD plan and a plan with more
//     than kMaxAggTerms terms, byte-identical to
//     testing::ReferenceAggregates on every engine at 1/2/4 threads.
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
#include <limits>
#include <variant>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/cost/cost_profile.h"
#include "fts/db/database.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"
#include "fts/simd/agg_spec.h"
#include "fts/sql/parser.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"
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

constexpr ColumnEncoding kAllEncodings[] = {
    ColumnEncoding::kPlain,     ColumnEncoding::kDictionary,
    ColumnEncoding::kBitPacked, ColumnEncoding::kRle,
    ColumnEncoding::kFor,       ColumnEncoding::kDelta};

// One engine's aggregate pushdown on the morsel executor (1 thread,
// kStrict: exactly `engine`, no ladder).
StatusOr<TableScanner::AggResult> AggregateWith(const TableScanner& scanner,
                                                ScanEngine engine) {
  return ExecuteParallelScanAggregate(scanner,
                                      testing::StrictOptions({engine, 0}));
}

// Materialize-then-fold reference: the chunk-loop SISD position list
// (testing::ReferenceScan), then every matched value boxed through
// BaseColumn::GetValue and folded with FoldSigned / FoldUnsigned /
// FoldFloat (the semantic reference named in agg_spec.h), partials merged
// in chunk order — the exact dataflow the pushdown replaces, sharing none
// of its decode paths.
TableScanner::AggResult FoldReference(const TableScanner& scanner,
                                      const ScanSpec& spec) {
  const auto matches = testing::ReferenceScan(scanner);
  FTS_CHECK(matches.ok());
  const Table& table = *scanner.table();
  TableScanner::AggResult result;
  result.accumulators.resize(spec.aggregates.size());
  result.matched = matches->TotalMatches();
  for (const auto& chunk : matches->chunks) {
    std::vector<AggAccumulator> partial(spec.aggregates.size());
    for (size_t t = 0; t < spec.aggregates.size(); ++t) {
      const AggregateSpec& term = spec.aggregates[t];
      partial[t].count = chunk.positions.size();
      if (term.column.empty()) continue;
      const size_t column_index = *table.ColumnIndex(term.column);
      const BaseColumn& column =
          table.chunk(chunk.chunk_id).column(column_index);
      const DataType type = column.data_type();
      for (const ChunkOffset position : chunk.positions) {
        const Value value = column.GetValue(position);
        if (DataTypeIsFloat(type)) {
          FoldFloat(term.op, ValueAs<double>(value), partial[t]);
        } else if (DataTypeIsSigned(type)) {
          FoldSigned(term.op, ValueAs<int64_t>(value), partial[t]);
        } else {
          FoldUnsigned(term.op, ValueAs<uint64_t>(value), partial[t]);
        }
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

    const TableScanner::AggResult reference = FoldReference(*scanner, spec);
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

  const TableScanner::AggResult reference = FoldReference(*scanner, spec);
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
    ParallelScanOptions options = testing::JitOptions(512);
    options.fallback = FallbackPolicy::kLadder;
    ExecutionReport report;
    const auto result =
        ExecuteParallelScanAggregate(*scanner, options, &report);
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
// (COUNT terms column-less) — every encoding included, so the kernel
// folds, the positions fold and the JIT rungs' static-engine chunks all
// come up across seeds.
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
    // Any encoding: RLE/FoR/delta aggregate columns (and RLE/delta
    // predicates) send chunks through the positions fold.
    const uint64_t encoding = rng.NextBounded(8);
    if (encoding < 6) builder.SetEncoding(c, kAllEncodings[encoding]);
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

// The case's spec, then its COUNT-only twin: the same predicates, every
// term COUNT(*). Over compressed-domain chains a COUNT-only spec counts the
// range path's ranges without materializing a row, a fold of its own, so
// every fuzz case checks both.
std::vector<ScanSpec> SpecAndCountTwin(const ScanSpec& spec) {
  ScanSpec count_twin = spec;
  for (AggregateSpec& term : count_twin.aggregates) term = AggregateSpec();
  return {spec, count_twin};
}

class AggPushdownDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

// Every static engine's pushed-down accumulators match the
// materialize-then-fold reference.
TEST_P(AggPushdownDifferentialTest, EnginesMatchMaterializeReference) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeAggCase(seed);
  for (const ScanSpec& spec : SpecAndCountTwin(fuzz.spec)) {
    const auto scanner = TableScanner::Prepare(fuzz.table, spec);
    if (!scanner.ok()) return;  // Non-representable literal.

    const TableScanner::AggResult reference = FoldReference(*scanner, spec);
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
                               spec.ToString().c_str(),
                               testing::ReplayCommand(kBinary, seed).c_str()));
    }
  }
}

// The morsel-driven aggregate path is byte-identical across 1/2/4 threads
// for the same engine, and matches the reference.
TEST_P(AggPushdownDifferentialTest, ParallelPathByteIdentical) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeAggCase(seed);
  for (const ScanSpec& spec : SpecAndCountTwin(fuzz.spec)) {
    const auto scanner = TableScanner::Prepare(fuzz.table, spec);
    if (!scanner.ok()) return;

    const TableScanner::AggResult reference = FoldReference(*scanner, spec);
    const ScanEngine engines[] = {
        ScanEngine::kScalarFused,
        GetCpuFeatures().HasFusedScanAvx512() ? ScanEngine::kAvx512Fused512
                                              : ScanEngine::kSisdAutoVec};
    for (const ScanEngine engine : engines) {
      const auto serial = AggregateWith(*scanner, engine);
      ASSERT_TRUE(serial.ok()) << testing::ReplayCommand(kBinary, seed);
      ExpectAggEqual(reference, *serial,
                     StrFormat("serial(%s) seed=%llu spec=%s\n%s",
                               ScanEngineToString(engine),
                               static_cast<unsigned long long>(seed),
                               spec.ToString().c_str(),
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
                      spec.ToString().c_str(),
                      testing::ReplayCommand(kBinary, seed).c_str()));
      }
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
  for (const ScanSpec& spec : SpecAndCountTwin(fuzz.spec)) {
    const auto scanner = TableScanner::Prepare(fuzz.table, spec);
    if (!scanner.ok()) return;

    const TableScanner::AggResult reference = FoldReference(*scanner, spec);
    for (const int threads : {1, 2, 4}) {
      ParallelScanOptions options = testing::JitOptions(512);
      options.fallback = FallbackPolicy::kLadder;
      options.threads = threads;
      testing::CheckColdAndWarmJit(
          options,
          [&] { return ExecuteParallelScanAggregate(*scanner, options); },
          [&](const StatusOr<TableScanner::AggResult>& parallel,
              const char* tier) {
            ASSERT_TRUE(parallel.ok())
                << parallel.status().ToString() << "\n"
                << testing::ReplayCommand(kBinary, seed);
            ExpectAggEqual(
                reference, *parallel,
                StrFormat("parallel(jit512, threads=%d, %s) seed=%llu "
                          "spec=%s\n%s",
                          threads, tier, static_cast<unsigned long long>(seed),
                          spec.ToString().c_str(),
                          testing::ReplayCommand(kBinary, seed).c_str()));
          });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitAggDifferentialTest,
                         ::testing::ValuesIn(testing::SeedRange(200, 204)));

// ---- Database-level differential against testing::ReferenceAggregates ----

// The oracle's row for an aggregate `sql` over `table`: the parsed WHERE
// conjunction through testing::ReferenceScan, then the boxed row loop of
// testing::ReferenceAggregates over the parsed aggregate list.
std::vector<Value> OracleRow(const TablePtr& table, const std::string& sql) {
  const StatusOr<SelectStatement> statement = ParseSelect(sql);
  FTS_CHECK(statement.ok());
  ScanSpec spec;
  for (const AstPredicate& predicate : statement->predicates) {
    spec.predicates.push_back(
        {predicate.column, predicate.op, predicate.literal});
  }
  StatusOr<std::vector<Value>> row =
      testing::ReferenceAggregates(table, spec, statement->aggregates);
  FTS_CHECK(row.ok());
  return *row;
}

// Byte-identical Value comparison: the same alternative holding the same
// bytes (NaN equals NaN with the same payload; -0.0 differs from 0.0).
bool SameValue(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return true;
        } else {
          const T& y = std::get<T>(b);
          return std::memcmp(&x, &y, sizeof(T)) == 0;
        }
      },
      a);
}

void ExpectRowMatchesOracle(const std::vector<Value>& oracle,
                            const QueryResult& result,
                            const std::string& context) {
  ASSERT_EQ(result.rows.size(), 1u) << context;
  ASSERT_EQ(result.rows[0].size(), oracle.size()) << context;
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_TRUE(SameValue(result.rows[0][i], oracle[i]))
        << context << " column " << i << ": got "
        << ValueToString(result.rows[0][i]) << ", oracle "
        << ValueToString(oracle[i]);
  }
}

// The full SQL path with pushdown on and off, at 1/2/4 threads: both arms
// reproduce the oracle byte for byte, and the on arm pushes down.
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
  const TablePtr table = builder.Build();
  ASSERT_TRUE(db.RegisterTable("t", table).ok());

  for (const char* sql :
       {"SELECT SUM(v), MIN(v), MAX(v), AVG(v), COUNT(*) FROM t WHERE k < 50",
        "SELECT SUM(v), COUNT(*) FROM t",
        "SELECT MIN(k), MAX(k) FROM t WHERE v >= 0 AND k >= 10"}) {
    const std::vector<Value> oracle = OracleRow(table, sql);
    for (const bool pushdown : {false, true}) {
      for (const int threads : {1, 2, 4}) {
        Database::QueryOptions options;
        options.aggregate_pushdown = pushdown;
        options.threads = threads;
        const auto result = db.Query(sql, options);
        ASSERT_TRUE(result.ok()) << sql;
        EXPECT_EQ(result->execution_report.aggregate_pushdown, pushdown)
            << sql;
        ExpectRowMatchesOracle(
            oracle, *result,
            StrFormat("%s pushdown=%d threads=%d", sql, pushdown, threads));
      }
    }
  }
}

// Value columns of the encoding matrix: every integer width (signed and
// unsigned) plus both float widths.
constexpr DataType kMatrixTypes[] = {
    DataType::kInt8,   DataType::kInt16,  DataType::kInt32,
    DataType::kInt64,  DataType::kUInt16, DataType::kUInt64,
    DataType::kFloat32, DataType::kFloat64};
// Over 2 * PositionsFoldSink::kFoldBatch rows, and not a multiple of the
// delta block: `k < 60` leaves each chunk two fold batches, the second
// starting inside a delta block the first one decoded.
constexpr size_t kMatrixChunkRows = 2100;
constexpr size_t kMatrixRows = 6 * kMatrixChunkRows + 123;

// Cell of matrix value column `type` at row `r`: runs of four equal values
// (RLE-friendly) with a small spread per chunk (FoR and delta encode),
// offset so int64/uint64 values sit above 2^53 and their SUMs wrap mod
// 2^64; float cells are halves, so every double sum is exact in any order.
Value MatrixCell(DataType type, size_t r) {
  const int64_t small = static_cast<int64_t>(((r / 4) * 7) % 23) - 11;
  switch (type) {
    case DataType::kInt8:
      return Value(static_cast<int8_t>(small * 9));
    case DataType::kInt16:
      return Value(static_cast<int16_t>(small * 1000 - 7));
    case DataType::kInt32:
      return Value(static_cast<int32_t>(small * 100000));
    case DataType::kInt64:
      return Value((int64_t{1} << 60) + small * 3);
    case DataType::kUInt16:
      return Value(static_cast<uint16_t>(40000 + small * 1000));
    case DataType::kUInt64:
      return Value((uint64_t{1} << 63) + static_cast<uint64_t>(small + 11));
    case DataType::kFloat32:
      return Value(static_cast<float>(small) / 2.0f);
    default:
      return Value(static_cast<double>(small) / 2.0);
  }
}

// The matrix table: a plain int32 filter column `k`; an int32 column `p`
// whose encoding rotates through all six per chunk, so predicates on it
// run in the kernels on some chunks and in the compressed domain on
// others; and one value column per kMatrixTypes entry (`v_int8`, ...)
// whose encoding also rotates per chunk, offset per column, so every
// column mixes encodings across its chunks (FoR/delta requests on float
// columns fall back to plain).
TablePtr BuildMatrixTable() {
  std::vector<ColumnDefinition> schema = {{"k", DataType::kInt32},
                                          {"p", DataType::kInt32}};
  for (const DataType type : kMatrixTypes) {
    schema.push_back(
        {StrFormat("v_%s", DataTypeToString(type)), type});
  }
  TableBuilder builder(schema, kMatrixChunkRows);
  Xoshiro256 rng(0xA66E);
  std::vector<Value> row(schema.size(), Value(int32_t{0}));
  for (size_t r = 0; r < kMatrixRows; ++r) {
    if (r % kMatrixChunkRows == 0) {
      const size_t chunk = r / kMatrixChunkRows;
      for (size_t c = 1; c < schema.size(); ++c) {
        builder.SetEncoding(c, kAllEncodings[(chunk + c) % 6]);
      }
    }
    row[0] = Value(static_cast<int32_t>(rng.NextBounded(100)));
    row[1] = Value(static_cast<int32_t>((r / 8) % 10));
    for (size_t t = 0; t < std::size(kMatrixTypes); ++t) {
      row[2 + t] = MatrixCell(kMatrixTypes[t], r);
    }
    FTS_CHECK(builder.AppendRow(row).ok());
  }
  return builder.Build();
}

// NaN cells cannot be appended row-wise (no literal is NaN), so the NaN
// table is built chunk by chunk: a plain int32 `k` and a float64 `d` with
// RLE chunks 1 and 3 and plain chunks otherwise. `d` holds a NaN every
// 37th row, chunk 4 nothing but NaN, and chunk 5 NaN except every 97th
// row — there a value is followed by NaN survivors in its SIMD lane,
// which must not displace it from MIN/MAX.
TablePtr BuildNanTable() {
  TableBuilder builder({{"k", DataType::kInt32}, {"d", DataType::kFloat64}});
  Xoshiro256 rng(0x7A7);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (size_t chunk = 0; chunk < 6; ++chunk) {
    AlignedVector<int32_t> k(kMatrixChunkRows);
    AlignedVector<double> d(kMatrixChunkRows);
    for (size_t i = 0; i < kMatrixChunkRows; ++i) {
      const size_t r = chunk * kMatrixChunkRows + i;
      k[i] = static_cast<int32_t>(rng.NextBounded(100));
      const double value = ValueAs<double>(MatrixCell(DataType::kFloat64, r));
      if (chunk == 4) {
        d[i] = kNan;
      } else if (chunk == 5) {
        d[i] = i % 97 == 3 ? value - static_cast<double>(i) : kNan;
      } else {
        d[i] = r % 37 == 5 ? kNan : value;
      }
    }
    ColumnPtr d_column =
        chunk == 1 || chunk == 3
            ? ColumnPtr(std::make_shared<RleColumn<double>>(
                  RleColumn<double>::FromValues(d)))
            : ColumnPtr(std::make_shared<ValueColumn<double>>(d));
    FTS_CHECK(builder
                  .AddChunk({std::make_shared<ValueColumn<int32_t>>(k),
                             std::move(d_column)})
                  .ok());
  }
  return builder.Build();
}

struct MatrixQuery {
  std::string sql;
  size_t predicates = 0;
  bool jit = false;  // Also run pinned to JIT (bounded compile count).
  bool too_many_terms = false;  // More than kMaxAggTerms fold terms.
  bool nan_table = false;       // FROM n (BuildNanTable), not FROM t.
};

// Per value column: no WHERE (stage-free chunks), a kernel predicate, a
// two-predicate chain (a 2-step plan on the SISD engines), a predicate
// that is compressed-domain on the RLE/delta chunks of `p`, an empty
// result, and a MIN/MAX/COUNT shape the zone maps can answer. Then the
// NaN column, and one plan with more than kMaxAggTerms terms.
std::vector<MatrixQuery> MatrixQueries() {
  std::vector<std::string> columns;
  for (const DataType type : kMatrixTypes) {
    columns.push_back(StrFormat("v_%s", DataTypeToString(type)));
  }
  std::vector<MatrixQuery> queries;
  for (const std::string& c : columns) {
    const std::string all =
        StrFormat("SELECT SUM(%s), MIN(%s), MAX(%s), AVG(%s), COUNT(*) FROM t",
                  c.c_str(), c.c_str(), c.c_str(), c.c_str());
    queries.push_back({all, 0, true});
    queries.push_back({all + " WHERE k < 60", 1, true});
    queries.push_back({all + " WHERE k < 60 AND p > 3", 2, false});
    queries.push_back({all + " WHERE p = 2", 1, false});
    queries.push_back({all + " WHERE k > 1000", 1, true});
    queries.push_back(
        {StrFormat("SELECT MIN(%s), MAX(%s), COUNT(*) FROM t", c.c_str(),
                   c.c_str()),
         0, true});
  }
  for (const char* where : {"", " WHERE k < 50", " WHERE k >= 50"}) {
    queries.push_back(
        {StrFormat("SELECT SUM(d), MIN(d), MAX(d), AVG(d), COUNT(*) FROM n%s",
                   where),
         where[0] == '\0' ? 0u : 1u, true, false, true});
  }
  queries.push_back({"SELECT MIN(d), MAX(d) FROM n WHERE k < 50", 1, true,
                     false, true});
  queries.push_back(
      {"SELECT SUM(v_int8), MIN(v_int8), MAX(v_int16), SUM(v_int32), "
       "MIN(v_int64), MAX(v_uint16), SUM(v_uint64), MIN(v_float32), "
       "MAX(v_float64), AVG(v_int8) FROM t WHERE k < 50",
       1, true, true});
  return queries;
}

// SUM/MIN/MAX/AVG/COUNT over all six encodings, every integer width and
// both float widths, on every static engine (plus JIT where it runs) at
// 1/2/4 threads: every result is byte-identical to the oracle, and every
// single-step plan with at most kMaxAggTerms terms pushes down.
TEST(AggPushdownDatabaseTest, EveryEncodingAndWidthMatchesOracle) {
  const TablePtr table = BuildMatrixTable();
  const TablePtr nan_table = BuildNanTable();
  // Every column holds every requested encoding in some chunk.
  for (size_t c = 1; c < 2 + std::size(kMatrixTypes); ++c) {
    const bool is_float =
        c >= 2 && DataTypeIsFloat(kMatrixTypes[c - 2]);
    for (const ColumnEncoding encoding : kAllEncodings) {
      const bool representable =
          !is_float || (encoding != ColumnEncoding::kFor &&
                        encoding != ColumnEncoding::kDelta);
      bool seen = false;
      for (ChunkId chunk = 0; chunk < table->chunk_count(); ++chunk) {
        seen = seen || table->chunk(chunk).column(c).encoding() == encoding;
      }
      EXPECT_EQ(seen, representable)
          << table->column_definition(c).name << " "
          << ColumnEncodingName(encoding);
    }
  }
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", table).ok());
  ASSERT_TRUE(db.RegisterTable("n", nan_table).ok());

  std::vector<ScanEngine> engines;
  for (const ScanEngine engine : kAllEngines) {
    if (ScanEngineAvailable(engine)) engines.push_back(engine);
  }
#if !defined(__SANITIZE_THREAD__)
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    engines.push_back(ScanEngine::kJit);
  }
#endif

  for (const MatrixQuery& query : MatrixQueries()) {
    const std::vector<Value> oracle =
        OracleRow(query.nan_table ? nan_table : table, query.sql);
    for (const ScanEngine engine : engines) {
      if (engine == ScanEngine::kJit && !query.jit) continue;
      const bool per_predicate_steps = engine == ScanEngine::kSisdNoVec ||
                                       engine == ScanEngine::kSisdAutoVec ||
                                       engine == ScanEngine::kBlockwise;
      const bool single_step = !per_predicate_steps || query.predicates <= 1;
      for (const int threads : {1, 2, 4}) {
        Database::QueryOptions options;
        options.engine = engine;
        options.threads = threads;
        const std::string where =
            StrFormat("%s engine=%s threads=%d", query.sql.c_str(),
                      ScanEngineToString(engine), threads);
        const auto result = db.Query(query.sql, options);
        ASSERT_TRUE(result.ok()) << where << ": "
                                 << result.status().ToString();
        EXPECT_EQ(result->execution_report.aggregate_pushdown,
                  single_step && !query.too_many_terms)
            << where;
        ExpectRowMatchesOracle(oracle, *result, where);
      }
    }
  }
}

// ---- SELECT COUNT(*) as a one-term pushdown ----

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
  for (const ColumnEncoding encoding : kAllEncodings) {
    schema.push_back({StrFormat("e_%s", ColumnEncodingName(encoding)),
                      DataType::kInt32});
  }
  TableBuilder builder(schema, /*chunk_size=*/1000);
  for (size_t c = 0; c < std::size(kAllEncodings); ++c) {
    builder.SetEncoding(c, kAllEncodings[c]);
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
  for (size_t c = 0; c < std::size(kAllEncodings); ++c) {
    CountQuery query;
    query.sql = StrFormat("SELECT COUNT(*) FROM t WHERE e_%s < 20",
                          ColumnEncodingName(kAllEncodings[c]));
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
  for (size_t c = 0; c < std::size(kAllEncodings); ++c) {
    ASSERT_EQ(table->chunk(0).column(c).encoding(), kAllEncodings[c])
        << ColumnEncodingName(kAllEncodings[c]);
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

// SELECT COUNT(*) pinned to JIT over an all-RLE chain: no generated
// operator covers a compressed-domain chunk, so every morsel counts the
// range path's ranges on the best static engine as a choice — no JIT
// attempt, no compile queued, no degradation, and no position list folded
// through the sink.
TEST(AggPushdownDatabaseTest, JitCountStarOverRleChainCountsRanges) {
  Database db;
  const TablePtr table = BuildCountTable();
  ASSERT_TRUE(db.RegisterTable("t", table).ok());
  const size_t rle = 3;
  ASSERT_EQ(kAllEncodings[rle], ColumnEncoding::kRle);
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
    EXPECT_EQ(report.executed.engine, cost::BestFusedEngine())
        << report.ToString();
    EXPECT_EQ(report.jit_cache_misses, 0u) << report.ToString();
    EXPECT_EQ(report.jit_cache_hits, 0u) << report.ToString();
    EXPECT_GT(report.rle_runs_classified, 0u) << report.ToString();
    EXPECT_GT(report.morsel_count, 0u);
    EXPECT_EQ(report.agg_positions_chunks, 0u) << report.ToString();
    EXPECT_EQ(report.agg_kernel_chunks, report.morsel_count)
        << report.ToString();
  }
}

// Value terms over RLE/FoR/delta columns fold through the positions sink,
// which no generated operator covers: pinned to JIT, every chunk runs the
// sink on the best static engine as a choice, not a degradation, and the
// static engine shows in the morsel engine mix.
TEST(AggPushdownDatabaseTest, JitRunsPositionsFoldOnStaticPath) {
  Database db;
  const TablePtr table = BuildCountTable();
  ASSERT_TRUE(db.RegisterTable("t", table).ok());
  const std::string sql =
      "SELECT SUM(e_rle), MAX(e_for), MIN(e_delta), AVG(e_rle) FROM t "
      "WHERE e_plain < 20";
  const std::vector<Value> oracle = OracleRow(table, sql);
  for (const int threads : {1, 4}) {
    Database::QueryOptions options;
    options.engine = ScanEngine::kJit;
    options.threads = threads;
    const auto result = db.Query(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ExecutionReport& report = result->execution_report;
    EXPECT_TRUE(report.aggregate_pushdown);
    EXPECT_FALSE(report.degraded) << report.ToString();
    EXPECT_EQ(report.executed.engine, cost::BestFusedEngine())
        << report.ToString();
    EXPECT_GT(report.morsel_count, 0u);
    EXPECT_EQ(report.agg_positions_chunks, report.morsel_count);
    EXPECT_EQ(report.agg_kernel_chunks, 0u);
    EXPECT_GT(report.agg_delta_blocks, 0u);
    for (const EngineChoice& choice : report.morsel_choices) {
      EXPECT_EQ(choice.engine, cost::BestFusedEngine());
    }
    EXPECT_EQ(report.jit_cache_hits + report.jit_cache_misses, 0u);
    ExpectRowMatchesOracle(oracle, *result,
                           StrFormat("threads=%d", threads));
  }
}

}  // namespace
}  // namespace fts
