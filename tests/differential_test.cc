// Cross-engine differential fuzzer. Where property_test checks every
// engine against a boxed-value oracle on friendly value ranges, this
// harness stresses the parts oracles gloss over: row counts that are not
// multiples of the 16/8-lane register widths, boundary values
// (INT32_MIN/MAX and friends), every compare op, predicate chains up to
// the kMaxScanStages limit, mixed encodings — and the morsel executor at
// 1/2/4 threads, which must return output position-for-position identical
// to the SISD reference.
//
// The reference is the chunk-loop SISD oracle (testing::ReferenceScan,
// which shares no driver code with the morsel executor) scanning a *plain
// twin* of the table (same cells, same chunk boundaries, every column
// decoded), so int64/uint32 boundary values that double cannot represent
// exactly are fair game, and every comparison proves the compressed-domain
// paths (RLE/FoR/delta) byte-identical to SISD over decoded data —
// precisely the equivalence the paper's fused kernels and JIT must
// preserve.
//
// Every failure message carries the seed and a one-line replay command;
// FTS_TEST_SEED=<seed> reruns exactly that case (see tests/test_util.h).

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/fault_injection.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/exec/task_pool.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

constexpr const char* kBinary = "differential_test";

// Row counts the lane widths mistreat first: empty, single row, one off
// either side of the 8- and 16-lane widths, one off a 64-row block, and a
// couple of sizes that are not multiples of anything interesting.
constexpr size_t kAwkwardRows[] = {1, 2, 7, 15, 16, 17, 31, 33,
                                   63, 64, 65, 100, 127, 129, 1000};

Value RandomLiteral(DataType type, Xoshiro256& rng) {
  // 1-in-8 draws pick a boundary value of the column type; the rest stay
  // in a small range so conjunctions keep matching rows.
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
      // Halves are exact; boundaries use huge magnitudes (NaN is excluded
      // on purpose — it is not a storage value the generator produces).
      if (boundary) {
        constexpr double kEdges[] = {-1e300, -0.0, 0.0, 1e300};
        return Value(kEdges[rng.NextBounded(4)]);
      }
      return Value(static_cast<double>(small) / 2.0);
    default:
      return Value(static_cast<int32_t>(small));
  }
}

// A handful of clustered values for "narrow" columns: chunk-local
// dictionaries then hold very few codes, so zone maps routinely prove a
// predicate impossible or tautological for individual chunks — the
// per-chunk drop/impossible machinery every rung must honor identically.
Value NarrowLiteral(DataType type, Xoshiro256& rng) {
  const int64_t pick = static_cast<int64_t>(rng.NextBounded(3)) * 5 - 5;
  switch (type) {
    case DataType::kInt32:
      return Value(static_cast<int32_t>(pick));
    case DataType::kInt64:
      return Value(pick * 1000000007LL);
    case DataType::kUInt32:
      return Value(static_cast<uint32_t>(pick + 5));
    case DataType::kFloat64:
      return Value(static_cast<double>(pick) / 2.0);
    default:
      return Value(static_cast<int32_t>(pick));
  }
}

struct FuzzCase {
  // The encoded table under test: each column draws one of the six
  // encodings (plain/dict/bit-packed/RLE/FoR/delta).
  TablePtr table;
  // Plain twin built from the same cells with the same chunk boundaries.
  // The reference scan runs SISD over this *decoded* data, so the
  // comparison proves the compressed-domain paths, not just cross-engine
  // agreement on one representation.
  TablePtr plain_table;
  ScanSpec spec;
};

// Chunks the prepared scanner will actually schedule: not proven
// impossible (dictionary translation or zone maps) and not empty. The
// parallel path excludes the rest before morsel creation.
size_t RunnableChunks(const TableScanner& scanner) {
  size_t runnable = 0;
  for (const TableScanner::ChunkPlan& plan : scanner.chunk_plans()) {
    if (!plan.impossible && plan.row_count > 0) ++runnable;
  }
  return runnable;
}

FuzzCase MakeCase(uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzCase result;

  // Half the cases use an awkward row count, half a random one.
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
  // Random chunking so the parallel path usually sees several morsels,
  // including tail chunks of awkward sizes.
  const size_t chunk_size = rng.NextBounded(2) == 0
                                ? rng.NextBounded(rows) + 1
                                : rows;
  TableBuilder builder(schema, chunk_size);
  // Plain twin fed the identical rows: the reference scans *decoded*
  // data, so every engine-vs-reference comparison also proves the
  // compressed-domain evaluation (RLE run classification, FoR rebase,
  // delta block reconstruction), not just engine agreement.
  TableBuilder plain_builder(schema, chunk_size);
  std::vector<bool> narrow(num_columns, false);
  for (size_t c = 0; c < num_columns; ++c) {
    // All six encodings, uniformly. Requests are per-chunk best-effort:
    // FoR/delta on float columns, boundary-valued chunks whose deltas
    // exceed the packed widths, and oversized dictionaries fall back to
    // plain for that chunk, which is itself a path worth fuzzing.
    // Bit-packing caps the dictionary at kMaxPackedBits; boundary draws
    // keep cardinality small (a handful of edge values), so it fits.
    constexpr ColumnEncoding kDraw[] = {
        ColumnEncoding::kPlain,   ColumnEncoding::kDictionary,
        ColumnEncoding::kBitPacked, ColumnEncoding::kRle,
        ColumnEncoding::kFor,     ColumnEncoding::kDelta};
    builder.SetEncoding(c, kDraw[rng.NextBounded(std::size(kDraw))]);
    // A third of columns draw from a 3-value set so chunk dictionaries
    // and zone maps frequently prune or drop per chunk — and RLE columns
    // collapse into long runs.
    narrow[c] = rng.NextBounded(3) == 0;
  }

  std::vector<Value> row(num_columns, Value(int32_t{0}));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      row[c] = narrow[c] ? NarrowLiteral(schema[c].type, rng)
                         : RandomLiteral(schema[c].type, rng);
    }
    FTS_CHECK(builder.AppendRow(row).ok());
    FTS_CHECK(plain_builder.AppendRow(row).ok());
  }
  result.table = builder.Build();
  result.plain_table = plain_builder.Build();

  // 1..7 predicates — up to one short of kMaxScanStages, exercising the
  // deepest chains the static kernels unroll.
  const size_t num_predicates = rng.NextBounded(7) + 1;
  for (size_t p = 0; p < num_predicates; ++p) {
    const size_t column = rng.NextBounded(num_columns);
    PredicateSpec predicate;
    predicate.column = schema[column].name;
    predicate.op = kAllCompareOps[rng.NextBounded(6)];
    predicate.value = RandomLiteral(schema[column].type, rng);
    result.spec.predicates.push_back(predicate);
  }
  return result;
}

// Position-for-position comparison against the reference, chunk by chunk.
void ExpectSameMatches(const TableMatches& reference,
                       const TableMatches& got, const std::string& what,
                       uint64_t seed, const ScanSpec& spec) {
  const std::string context =
      StrFormat("%s seed=%llu spec=%s\n%s", what.c_str(),
                static_cast<unsigned long long>(seed),
                spec.ToString().c_str(),
                testing::ReplayCommand(kBinary, seed).c_str());
  ASSERT_EQ(reference.chunks.size(), got.chunks.size()) << context;
  for (size_t i = 0; i < reference.chunks.size(); ++i) {
    ASSERT_EQ(reference.chunks[i].chunk_id, got.chunks[i].chunk_id)
        << context;
    ASSERT_EQ(reference.chunks[i].positions, got.chunks[i].positions)
        << context << "\nchunk " << reference.chunks[i].chunk_id;
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Every static rung (and Blockwise) returns exactly what the SISD
// reference scan returns.
TEST_P(DifferentialTest, StaticEnginesMatchSisdReference) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);

  const auto prepared = TableScanner::Prepare(fuzz.table, fuzz.spec);
  const auto prepared_plain = TableScanner::Prepare(fuzz.plain_table, fuzz.spec);
  // Literal representability depends on the logical type, never the
  // encoding: the encoded table and its plain twin must agree on whether
  // the spec prepares at all.
  ASSERT_EQ(prepared.ok(), prepared_plain.ok())
      << testing::ReplayCommand(kBinary, seed);
  if (!prepared.ok()) {
    // Non-representable literal: every engine must reject identically.
    for (const ScanEngine engine :
         {ScanEngine::kSisdNoVec, ScanEngine::kScalarFused,
          ScanEngine::kAvx512Fused512}) {
      if (!ScanEngineAvailable(engine)) continue;
      EXPECT_FALSE(testing::ScanWith(fuzz.table, fuzz.spec, engine).ok())
          << testing::ReplayCommand(kBinary, seed);
    }
    return;
  }

  // SISD over the decoded plain twin is the ground truth.
  const auto reference = testing::ReferenceScan(*prepared_plain);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << "\n"
                              << testing::ReplayCommand(kBinary, seed);
  const auto reference_count = testing::ReferenceCount(*prepared_plain);
  ASSERT_TRUE(reference_count.ok());

  // The SISD rung over the *encoded* table must already agree with it.
  {
    const auto encoded_sisd = testing::ReferenceScan(*prepared);
    ASSERT_TRUE(encoded_sisd.ok()) << encoded_sisd.status().ToString()
                                   << "\n"
                                   << testing::ReplayCommand(kBinary, seed);
    ExpectSameMatches(*reference, *encoded_sisd, "sisd(encoded)", seed,
                      fuzz.spec);
  }

  for (const ScanEngine engine :
       {ScanEngine::kSisdAutoVec, ScanEngine::kScalarFused,
        ScanEngine::kAvx2Fused128, ScanEngine::kAvx512Fused128,
        ScanEngine::kAvx512Fused256, ScanEngine::kAvx512Fused512,
        ScanEngine::kBlockwise}) {
    if (!ScanEngineAvailable(engine)) continue;
    const ParallelScanOptions options = testing::StrictOptions({engine, 0});
    const auto matches = ExecuteParallelScan(*prepared, options);
    ASSERT_TRUE(matches.ok())
        << ScanEngineToString(engine) << ": " << matches.status().ToString()
        << "\n" << testing::ReplayCommand(kBinary, seed);
    ExpectSameMatches(*reference, *matches, ScanEngineToString(engine),
                      seed, fuzz.spec);
    const auto count = ExecuteParallelScanCount(*prepared, options);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, *reference_count)
        << ScanEngineToString(engine) << " "
        << testing::ReplayCommand(kBinary, seed);
  }
}

// The morsel-driven parallel path returns byte-identical output at every
// thread count. Static engines only here — the JIT rungs get their own,
// smaller seed range below, and TSan cannot follow JIT-compiled code.
TEST_P(DifferentialTest, ParallelPathMatchesSisdReference) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);

  const auto prepared = TableScanner::Prepare(fuzz.table, fuzz.spec);
  if (!prepared.ok()) return;
  // Reference = SISD over the decoded plain twin; the morsel path runs
  // over the encoded table and must merge to the identical output.
  const auto prepared_plain = TableScanner::Prepare(fuzz.plain_table, fuzz.spec);
  ASSERT_TRUE(prepared_plain.ok());
  const auto reference = testing::ReferenceScan(*prepared_plain);
  ASSERT_TRUE(reference.ok());
  const auto reference_count = testing::ReferenceCount(*prepared_plain);
  ASSERT_TRUE(reference_count.ok());

  const ScanEngine requested_engines[] = {
      ScanEngine::kScalarFused,
      GetCpuFeatures().HasFusedScanAvx512() ? ScanEngine::kAvx512Fused512
                                            : ScanEngine::kSisdAutoVec};
  for (const ScanEngine requested : requested_engines) {
    for (const int threads : {1, 2, 4}) {
      ParallelScanOptions options;
      options.requested = {requested, 0};
      options.fallback = FallbackPolicy::kStrict;
      options.threads = threads;
      ExecutionReport report;
      const auto matches = ExecuteParallelScan(*prepared, options, &report);
      ASSERT_TRUE(matches.ok())
          << matches.status().ToString() << "\n"
          << testing::ReplayCommand(kBinary, seed);
      ExpectSameMatches(
          *reference, *matches,
          StrFormat("parallel(%s, threads=%d)",
                    ScanEngineToString(requested), threads),
          seed, fuzz.spec);
      const size_t runnable = RunnableChunks(*prepared);
      EXPECT_EQ(report.worker_count, runnable > 1 ? threads : 1);
      EXPECT_EQ(report.morsel_count, runnable);
      EXPECT_EQ(report.chunks_total, fuzz.table->chunk_count());
      EXPECT_LE(report.chunks_pruned, fuzz.table->chunk_count() - runnable)
          << "pruned chunks must be a subset of the non-runnable ones";

      const auto count = ExecuteParallelScanCount(*prepared, options);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, *reference_count)
          << testing::ReplayCommand(kBinary, seed);
    }
  }
}

// The cost model must be invisible in the output: the same fuzz case run
// with FTS_ADAPTIVE=0 (no re-ranking) and with FTS_ADAPTIVE=1 (chains
// re-ranked per chunk) returns positions byte-identical to the chunk-loop
// reference, under kStrict and under the ladder at every thread count.
// AdaptiveEnabled() is re-read per Prepare, so one process can prepare
// both variants.
TEST_P(DifferentialTest, AdaptiveOnOffByteIdentical) {
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);

  setenv("FTS_ADAPTIVE", "0", 1);
  const auto off = TableScanner::Prepare(fuzz.table, fuzz.spec);
  setenv("FTS_ADAPTIVE", "1", 1);
  const auto on = TableScanner::Prepare(fuzz.table, fuzz.spec);
  unsetenv("FTS_ADAPTIVE");
  ASSERT_EQ(off.ok(), on.ok()) << testing::ReplayCommand(kBinary, seed);
  if (!off.ok()) return;
  EXPECT_FALSE(off->model_active());
  EXPECT_TRUE(on->model_active());

  const ScanEngine engines[] = {
      ScanEngine::kSisdNoVec, ScanEngine::kScalarFused,
      GetCpuFeatures().HasFusedScanAvx512() ? ScanEngine::kAvx512Fused512
                                            : ScanEngine::kSisdAutoVec};
  const auto reference = testing::ReferenceScan(*off);
  ASSERT_TRUE(reference.ok()) << testing::ReplayCommand(kBinary, seed);
  for (const ScanEngine engine : engines) {
    const ParallelScanOptions strict = testing::StrictOptions({engine, 0});
    const auto unadapted = ExecuteParallelScan(*off, strict);
    ASSERT_TRUE(unadapted.ok()) << ScanEngineToString(engine) << "\n"
                                << testing::ReplayCommand(kBinary, seed);
    ExpectSameMatches(*reference, *unadapted,
                      StrFormat("static(%s)", ScanEngineToString(engine)),
                      seed, fuzz.spec);
    const auto adapted = ExecuteParallelScan(*on, strict);
    ASSERT_TRUE(adapted.ok()) << ScanEngineToString(engine) << "\n"
                              << testing::ReplayCommand(kBinary, seed);
    ExpectSameMatches(*reference, *adapted,
                      StrFormat("adaptive(%s)", ScanEngineToString(engine)),
                      seed, fuzz.spec);
    const auto reference_count = ExecuteParallelScanCount(*off, strict);
    const auto adapted_count = ExecuteParallelScanCount(*on, strict);
    ASSERT_TRUE(reference_count.ok() && adapted_count.ok());
    EXPECT_EQ(*reference_count, *adapted_count)
        << ScanEngineToString(engine) << " "
        << testing::ReplayCommand(kBinary, seed);

    for (const int threads : {1, 2, 4}) {
      ParallelScanOptions options;
      options.requested = {engine, 0};
      options.threads = threads;
      ExecutionReport report;
      const auto parallel = ExecuteParallelScan(*on, options, &report);
      ASSERT_TRUE(parallel.ok())
          << parallel.status().ToString() << "\n"
          << testing::ReplayCommand(kBinary, seed);
      ExpectSameMatches(
          *reference, *parallel,
          StrFormat("adaptive-parallel(%s, threads=%d)",
                    ScanEngineToString(engine), threads),
          seed, fuzz.spec);
      // A model-driven engine switch is not a failure demotion.
      EXPECT_FALSE(report.degraded)
          << ScanEngineToString(engine) << " threads=" << threads << "\n"
          << testing::ReplayCommand(kBinary, seed);
      EXPECT_TRUE(report.model_active);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::ValuesIn(testing::SeedRange(1, 49)));

// Deterministic narrow-dictionary table: each chunk's c0 holds exactly one
// value (the chunk index), so for `c0 >= 3 AND c0 <= 5 AND c1 >= 2` the
// prepared plans must mark chunks 0-2 and 6-7 impossible and drop both c0
// stages from chunks 3-5 — identically on the morsel executor at every
// thread count, on every rung.
TEST(NarrowDictionaryDifferentialTest, PerChunkDropAndImpossibleEveryRung) {
  constexpr size_t kChunks = 8;
  constexpr size_t kRowsPerChunk = 257;  // Awkward: not a lane multiple.
  TableBuilder builder({{"c0", DataType::kInt32}, {"c1", DataType::kInt32}},
                       kRowsPerChunk);
  builder.SetDictionaryEncoded(0);
  builder.SetBitPacked(1);
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    for (size_t r = 0; r < kRowsPerChunk; ++r) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(chunk)),
                                Value(static_cast<int32_t>(r % 5))})
                    .ok());
    }
  }
  const TablePtr table = builder.Build();

  ScanSpec spec;
  spec.predicates = {{"c0", CompareOp::kGe, Value(int32_t{3})},
                     {"c0", CompareOp::kLe, Value(int32_t{5})},
                     {"c1", CompareOp::kGe, Value(int32_t{2})}};

  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->chunk_plans().size(), kChunks);
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    const TableScanner::ChunkPlan& plan = prepared->chunk_plans()[chunk];
    if (chunk >= 3 && chunk <= 5) {
      EXPECT_FALSE(plan.impossible) << "chunk " << chunk;
      EXPECT_EQ(plan.stages.size(), 1u) << "chunk " << chunk;
    } else {
      EXPECT_TRUE(plan.impossible) << "chunk " << chunk;
    }
  }
  EXPECT_EQ(prepared->pruning().chunks_pruned, kChunks - 3);
  EXPECT_EQ(prepared->pruning().stages_dropped, 3u * 2u);
  EXPECT_EQ(RunnableChunks(*prepared), 3u);

  const auto reference = testing::ReferenceScan(*prepared);
  ASSERT_TRUE(reference.ok());
  // 3 chunks survive; c1 >= 2 keeps r%5 in {2,3,4}, 51 rows each in 0..256.
  EXPECT_EQ(reference->TotalMatches(), 3u * 3u * (kRowsPerChunk / 5));

  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
        ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise}) {
    if (!ScanEngineAvailable(engine)) continue;
    for (const int threads : {1, 2, 4}) {
      ParallelScanOptions options;
      options.requested = {engine, 0};
      options.fallback = FallbackPolicy::kStrict;
      options.threads = threads;
      ExecutionReport report;
      const auto parallel = ExecuteParallelScan(*prepared, options, &report);
      ASSERT_TRUE(parallel.ok())
          << ScanEngineToString(engine) << " threads=" << threads;
      ExpectSameMatches(*reference, *parallel,
                        StrFormat("parallel(%s, threads=%d)",
                                  ScanEngineToString(engine), threads),
                        /*seed=*/0, spec);
      EXPECT_EQ(report.chunks_pruned, kChunks - 3);
      EXPECT_EQ(report.stages_dropped, 3u * 2u);
      EXPECT_EQ(report.morsel_count, 3u);
      EXPECT_GT(report.bytes_skipped, 0u);
    }
  }
}

// JIT rungs are expensive per distinct signature (one compiler invocation
// each), so they run over a handful of seeds. Skipped under TSan: the
// dlopen'd operators are uninstrumented code TSan cannot model.
class JitDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitDifferentialTest, JitEnginesMatchSisdReference) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);
  const auto prepared = TableScanner::Prepare(fuzz.table, fuzz.spec);
  if (!prepared.ok()) return;
  const auto prepared_plain = TableScanner::Prepare(fuzz.plain_table, fuzz.spec);
  ASSERT_TRUE(prepared_plain.ok());
  const auto reference = testing::ReferenceScan(*prepared_plain);
  ASSERT_TRUE(reference.ok());

  // The JIT rung per morsel, inline at 1 thread and on the pool at 2 and 4,
  // where concurrent compiles of the same signature must single-flight.
  for (const int threads : {1, 2, 4}) {
    ParallelScanOptions options = testing::JitOptions(512);
    options.fallback = FallbackPolicy::kLadder;
    options.threads = threads;
    ExecutionReport report;
    testing::CheckColdAndWarmJit(
        options,
        [&] {
          report = ExecutionReport();
          return ExecuteParallelScan(*prepared, options, &report);
        },
        [&](const StatusOr<TableMatches>& parallel, const char* tier) {
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString() << "\n"
                                     << testing::ReplayCommand(kBinary, seed);
          ExpectSameMatches(*reference, *parallel,
                            StrFormat("parallel(jit512, threads=%d, %s)",
                                      threads, tier),
                            seed, fuzz.spec);
          // Compressed-domain chunks run the range path on a static
          // engine and a cold operator runs tier 0 — choices, not
          // degradations — so with no fault armed nothing degrades.
          if (FaultInjection::Instance().AnyArmed()) return;
          EXPECT_FALSE(report.degraded)
              << tier << ": " << report.ToString() << "\n"
              << testing::ReplayCommand(kBinary, seed);
          // Warm, a morsel runs the compiled operator exactly when its
          // chunk has no compressed-domain stage (morsel_choices lists the
          // runnable chunks in chunk order).
          if (std::string(tier) != "warm") return;
          size_t morsel = 0;
          for (const TableScanner::ChunkPlan& plan : prepared->chunk_plans()) {
            if (plan.impossible || plan.row_count == 0) continue;
            ASSERT_LT(morsel, report.morsel_choices.size());
            const EngineChoice& choice = report.morsel_choices[morsel++];
            EXPECT_EQ(choice.engine == ScanEngine::kJit,
                      plan.compressed.empty())
                << "morsel " << morsel - 1 << ": " << report.ToString()
                << "\n" << testing::ReplayCommand(kBinary, seed);
          }
        });
  }
}

// Same adaptive on/off identity for the JIT rung: re-ranked chains change
// the generated operator's stage order per chunk, but the merged output
// must not move.
TEST_P(JitDifferentialTest, AdaptiveOnOffByteIdenticalUnderJit) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  const uint64_t seed = GetParam();
  const FuzzCase fuzz = MakeCase(seed);

  setenv("FTS_ADAPTIVE", "0", 1);
  const auto off = TableScanner::Prepare(fuzz.table, fuzz.spec);
  setenv("FTS_ADAPTIVE", "1", 1);
  const auto on = TableScanner::Prepare(fuzz.table, fuzz.spec);
  unsetenv("FTS_ADAPTIVE");
  ASSERT_EQ(off.ok(), on.ok());
  if (!off.ok()) return;

  const auto reference = testing::ReferenceScan(*off);
  ASSERT_TRUE(reference.ok());

  for (const int threads : {1, 2, 4}) {
    ParallelScanOptions options;
    options.requested = {ScanEngine::kJit, 512};
    options.threads = threads;
    ExecutionReport report;
    const auto adapted = ExecuteParallelScan(*on, options, &report);
    ASSERT_TRUE(adapted.ok()) << adapted.status().ToString() << "\n"
                              << testing::ReplayCommand(kBinary, seed);
    ExpectSameMatches(*reference, *adapted,
                      StrFormat("adaptive-parallel(jit512, threads=%d)",
                                threads),
                      seed, fuzz.spec);
    EXPECT_TRUE(report.model_active);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest,
                         ::testing::ValuesIn(testing::SeedRange(200, 204)));

// A JIT compile failing for *one* morsel mid-query must demote only that
// morsel's rung, never corrupt the merged output. The fault fires once,
// and the fresh cache means the first compile attempt hits it.
TEST(DifferentialFaultTest, MidQueryCompileFailureKeepsOutputIdentical) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "JIT-compiled code is not TSan-instrumented";
#endif
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  const uint64_t seed = 7;
  const FuzzCase fuzz = MakeCase(seed);
  const auto prepared = TableScanner::Prepare(fuzz.table, fuzz.spec);
  ASSERT_TRUE(prepared.ok());
  const auto prepared_plain = TableScanner::Prepare(fuzz.plain_table, fuzz.spec);
  ASSERT_TRUE(prepared_plain.ok());
  const auto reference = testing::ReferenceScan(*prepared_plain);
  ASSERT_TRUE(reference.ok());

  JitCache cache;  // Fresh cache so the armed fault hits a real compile.
  ScopedFault fault("jit.compile_error", /*times=*/1);
  ParallelScanOptions options;
  options.requested = {ScanEngine::kJit, 512};
  options.threads = 2;
  options.cache = &cache;
  ExecutionReport report;
  const auto matches = ExecuteParallelScan(*prepared, options, &report);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ExpectSameMatches(*reference, *matches, "parallel(jit512, fault)", seed,
                    fuzz.spec);
  // The report records the per-morsel decisions either way; whether a
  // rung actually demoted depends on which compile drew the fault (the
  // cache retries failed signatures once). Pruned chunks never choose an
  // engine, so only runnable chunks appear.
  EXPECT_EQ(report.morsel_choices.size(), RunnableChunks(*prepared));
}

}  // namespace
}  // namespace fts
