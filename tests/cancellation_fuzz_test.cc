// Cancellation fuzzer: injects a cancel at a random morsel/chunk boundary
// (QueryContext::CancelAtCheck — deterministic per seed, no timer races)
// into the morsel-driven parallel scan across the static engine rungs and
// the JIT path, and into whole 2-step plans whose refine, fold and gather
// morsels run on the same morsel loop, at 1/2/4 threads, then asserts the
// lifecycle contract:
//
//   - a run that fails does so with exactly kQueryCanceled;
//   - a run that completes (the cancel landed after the last boundary) is
//     byte-identical to the SISD reference;
//   - the engine stays fully usable afterwards: an un-canceled rerun over
//     the same scanner returns the reference result.
//
// Runs under TSan via the `concurrency` label; JIT cases self-skip there
// (dlopen'd operators are uninstrumented code TSan cannot follow).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fts/common/cpu_info.h"
#include "fts/common/query_context.h"
#include "fts/exec/parallel_scan.h"
#include "fts/plan/lqp.h"
#include "fts/plan/optimizer.h"
#include "fts/plan/physical_plan.h"
#include "fts/plan/translator.h"
#include "fts/scan/table_scan.h"
#include "fts/sql/parser.h"
#include "fts/storage/data_generator.h"
#include "test_util.h"

namespace fts {
namespace {

constexpr char kBinary[] = "cancellation_fuzz_test";

// Small deterministic PRNG (splitmix64) so the cancel point depends only
// on the seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct FuzzTable {
  GeneratedScanTable generated;
  ScanSpec spec;
};

FuzzTable MakeFuzzTable(uint64_t seed) {
  FuzzTable fuzz;
  ScanTableOptions options;
  // Multi-chunk: enough morsels that 1/2/4 threads genuinely interleave,
  // small enough to fuzz many seeds.
  options.rows = 200000;
  options.chunk_size = 16384;  // 13 chunks.
  options.selectivities = {0.3, 0.6};
  options.seed = seed;
  fuzz.generated = MakeScanTable(options);
  fuzz.spec.predicates = {
      {"c0", CompareOp::kEq, Value(fuzz.generated.search_values[0])},
      {"c1", CompareOp::kEq, Value(fuzz.generated.search_values[1])}};
  return fuzz;
}

void ExpectSameMatches(const TableMatches& reference,
                       const TableMatches& got, const std::string& what,
                       uint64_t seed) {
  ASSERT_EQ(reference.chunks.size(), got.chunks.size())
      << what << "\n" << testing::ReplayCommand(kBinary, seed);
  for (size_t i = 0; i < reference.chunks.size(); ++i) {
    ASSERT_EQ(reference.chunks[i].positions, got.chunks[i].positions)
        << what << " chunk " << i << "\n"
        << testing::ReplayCommand(kBinary, seed);
  }
}

std::vector<EngineChoice> FuzzEngines() {
  std::vector<EngineChoice> engines;
  engines.push_back({ScanEngine::kSisdAutoVec, 0});
  engines.push_back({ScanEngine::kScalarFused, 0});
  if (ScanEngineAvailable(ScanEngine::kAvx2Fused128)) {
    engines.push_back({ScanEngine::kAvx2Fused128, 0});
  }
  if (GetCpuFeatures().HasFusedScanAvx512()) {
    engines.push_back({ScanEngine::kAvx512Fused512, 0});
#if !defined(__SANITIZE_THREAD__)
    // JIT-compiled operators are dlopen'd uninstrumented code; TSan
    // cannot follow them, so the JIT rung only runs in the plain config.
    engines.push_back({ScanEngine::kJit, 512});
#endif
  }
  return engines;
}

class CancellationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CancellationFuzzTest, CancelAtRandomMorselBoundary) {
  const uint64_t seed = GetParam();
  const FuzzTable fuzz = MakeFuzzTable(seed);

  const auto prepared = TableScanner::Prepare(fuzz.generated.table, fuzz.spec);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const auto reference = testing::ReferenceScan(*prepared);
  ASSERT_TRUE(reference.ok());

  uint64_t rng = seed;
  for (const EngineChoice& engine : FuzzEngines()) {
    for (const int threads : {1, 2, 4}) {
      // Cancel somewhere in the first ~2x the boundary-check count a
      // clean run needs, so roughly half the runs abort mid-scan and the
      // other half complete (both sides of the contract get exercised).
      rng = Mix(rng);
      const uint64_t cancel_at = rng % 24 + 1;

      QueryContext ctx;
      ctx.CancelAtCheck(cancel_at);
      ParallelScanOptions options;
      options.requested = engine;
      options.fallback = FallbackPolicy::kLadder;
      options.threads = threads;
      options.context = &ctx;
      ExecutionReport report;
      const auto result = ExecuteParallelScan(*prepared, options, &report);

      const std::string what = StrFormat(
          "engine=%s threads=%d cancel_at=%llu",
          engine.ToString().c_str(), threads,
          static_cast<unsigned long long>(cancel_at));
      if (result.ok()) {
        // Completed before the Nth boundary: output must be untouched by
        // the lifecycle plumbing.
        ExpectSameMatches(*reference, *result, what + " (completed)", seed);
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kQueryCanceled)
            << what << ": " << result.status().ToString() << "\n"
            << testing::ReplayCommand(kBinary, seed);
        EXPECT_TRUE(ctx.cancelled());
        // Deterministic partial-abort accounting: nothing double-counted.
        EXPECT_LE(report.morsels_completed + report.morsels_aborted,
                  report.morsel_count)
            << what;
      }

      // The engine must stay usable: a fresh un-canceled run over the
      // same scanner and pool returns the reference, byte for byte.
      ParallelScanOptions clean = options;
      clean.context = nullptr;
      const auto rerun = ExecuteParallelScan(*prepared, clean);
      ASSERT_TRUE(rerun.ok())
          << what << " rerun: " << rerun.status().ToString() << "\n"
          << testing::ReplayCommand(kBinary, seed);
      ExpectSameMatches(*reference, *rerun, what + " (rerun)", seed);
    }
  }
}

// Count path twin: a canceled count aborts typed; a clean rerun matches.
TEST_P(CancellationFuzzTest, CancelCountPath) {
  const uint64_t seed = GetParam();
  const FuzzTable fuzz = MakeFuzzTable(seed);
  const auto prepared = TableScanner::Prepare(fuzz.generated.table, fuzz.spec);
  ASSERT_TRUE(prepared.ok());
  const auto reference = testing::ReferenceCount(*prepared);
  ASSERT_TRUE(reference.ok());

  uint64_t rng = Mix(seed ^ 0xc0ffee);
  for (const int threads : {1, 2, 4}) {
    rng = Mix(rng);
    QueryContext ctx;
    ctx.CancelAtCheck(rng % 16 + 1);
    ParallelScanOptions options;
    options.requested = {ScanEngine::kScalarFused, 0};
    options.threads = threads;
    options.context = &ctx;
    const auto count = ExecuteParallelScanCount(*prepared, options);
    if (count.ok()) {
      EXPECT_EQ(*count, *reference)
          << testing::ReplayCommand(kBinary, seed);
    } else {
      EXPECT_EQ(count.status().code(), StatusCode::kQueryCanceled)
          << testing::ReplayCommand(kBinary, seed);
    }
    ParallelScanOptions clean = options;
    clean.context = nullptr;
    const auto rerun = ExecuteParallelScanCount(*prepared, clean);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(*rerun, *reference) << testing::ReplayCommand(kBinary, seed);
  }
}

// Plans `sql` over `table` (registered as "t") as a non-fused sisd-novec
// plan — one scan step per predicate — on `threads` workers armed with
// `ctx`, runs it, and renders every result row.
StatusOr<std::string> RunSisdPlan(const TablePtr& table,
                                  const std::string& sql, int threads,
                                  QueryContext* ctx) {
  FTS_ASSIGN_OR_RETURN(const SelectStatement statement, ParseSelect(sql));
  FTS_ASSIGN_OR_RETURN(LqpNodePtr lqp, BuildLqp(statement, "t", table));
  OptimizerOptions optimizer_options;
  optimizer_options.enable_fusion = false;
  FTS_RETURN_IF_ERROR(OptimizeLqp(&lqp, optimizer_options));
  TranslatorOptions options;
  options.engine = ScanEngine::kSisdNoVec;
  options.threads = threads;
  options.context = ctx;
  FTS_ASSIGN_OR_RETURN(const PhysicalPlan plan, TranslateLqp(lqp, options));
  if (plan.scan_steps.size() != 2 || plan.pushdown_step.has_value()) {
    return Status::Internal("expected an unpushed 2-step plan: " +
                            plan.Explain());
  }
  FTS_ASSIGN_OR_RETURN(const QueryResult result, ExecutePlan(plan));
  return result.ToString(SIZE_MAX);
}

// ExecutePlan twin: 2-step sisd-novec plans for COUNT(*), SUM/MIN (refine,
// then fold) and a top-k projection (refine, then gather), each canceled
// at a random boundary of its scan, refine, fold or gather morsels. A
// canceled run fails with exactly kQueryCanceled; a completed run and a
// clean rerun match the 1-thread reference byte for byte.
TEST_P(CancellationFuzzTest, CancelPlanSteps) {
  const uint64_t seed = GetParam();
  ScanTableOptions options;
  options.rows = 200000;
  options.chunk_size = 16384;  // 13 chunks.
  // c2 matches half the rows and is random elsewhere: varied fold values
  // and sort keys.
  options.selectivities = {0.3, 0.6, 0.5};
  options.seed = seed;
  const GeneratedScanTable generated = MakeScanTable(options);
  const std::string where =
      StrFormat(" FROM t WHERE c0 = %d AND c1 = %d",
                generated.search_values[0], generated.search_values[1]);
  const std::vector<std::string> queries = {
      "SELECT COUNT(*)" + where, "SELECT SUM(c2), MIN(c2)" + where,
      "SELECT c0, c2" + where + " ORDER BY c2 DESC LIMIT 25"};

  uint64_t rng = Mix(seed ^ 0x5eed);
  for (const std::string& sql : queries) {
    const auto reference = RunSisdPlan(generated.table, sql, 1, nullptr);
    ASSERT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    for (const int threads : {1, 2, 4}) {
      // A clean run passes 29 (COUNT) to 54 (top-k) boundaries; cancel
      // within the first 80 so both sides of the contract get exercised.
      rng = Mix(rng);
      const uint64_t cancel_at = rng % 80 + 1;
      const std::string what =
          StrFormat("%s threads=%d cancel_at=%llu", sql.c_str(), threads,
                    static_cast<unsigned long long>(cancel_at));
      QueryContext ctx;
      ctx.CancelAtCheck(cancel_at);
      const auto result = RunSisdPlan(generated.table, sql, threads, &ctx);
      if (result.ok()) {
        EXPECT_EQ(*result, *reference)
            << what << "\n" << testing::ReplayCommand(kBinary, seed);
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kQueryCanceled)
            << what << ": " << result.status().ToString() << "\n"
            << testing::ReplayCommand(kBinary, seed);
        EXPECT_TRUE(ctx.cancelled()) << what;
      }
      const auto rerun = RunSisdPlan(generated.table, sql, threads, nullptr);
      ASSERT_TRUE(rerun.ok()) << what << " rerun: "
                              << rerun.status().ToString();
      EXPECT_EQ(*rerun, *reference)
          << what << " (rerun)\n" << testing::ReplayCommand(kBinary, seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancellationFuzzTest,
                         ::testing::ValuesIn(testing::SeedRange(1, 17)));

}  // namespace
}  // namespace fts
