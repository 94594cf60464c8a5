// Calibrated cost model (fts/cost, DESIGN.md §14): profile round-trip and
// version invalidation, selectivity estimation, chain-cost monotonicity,
// and the per-chunk behaviors the model drives inside TableScanner —
// re-ranking on adversarial skew and engine adaptation that never changes
// results.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "fts/common/cpu_info.h"
#include "fts/cost/cost_model.h"
#include "fts/cost/cost_profile.h"
#include "fts/db/database.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/table_builder.h"
#include "test_util.h"

namespace fts {
namespace {

using cost::CostProfile;

// Calibration is process-lifetime (CalibratedProfile() measures once);
// force the fast mode before any test can trigger it so the suite stays
// quick under TSan too.
const bool kFastCalibration = [] {
  setenv("FTS_CALIBRATE_FAST", "1", 1);
  return true;
}();

// Toggles FTS_ADAPTIVE for the duration of a scope. Prepare() reads the
// switch once, so a scanner prepared inside the scope keeps its behavior
// after restore.
class ScopedAdaptive {
 public:
  explicit ScopedAdaptive(bool on) {
    setenv("FTS_ADAPTIVE", on ? "1" : "0", 1);
  }
  ~ScopedAdaptive() { unsetenv("FTS_ADAPTIVE"); }
};

TEST(CostProfileTest, SerializeParseRoundTrip) {
  CostProfile profile = CostProfile::Defaults();
  profile.calibrated = true;
  profile.rle_run_ns = 7.25;
  profile.delta_block_ns = 19.5;
  profile.delta_row_ns = 2.125;
  profile.jit_speed_factor = 0.75;
  profile.jit_compile_millis = 42.5;

  const auto parsed = CostProfile::Parse(profile.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, CostProfile::kVersion);
  EXPECT_EQ(parsed->cpu, profile.cpu);
  EXPECT_TRUE(parsed->calibrated);
  EXPECT_DOUBLE_EQ(parsed->rle_run_ns, profile.rle_run_ns);
  EXPECT_DOUBLE_EQ(parsed->delta_block_ns, profile.delta_block_ns);
  EXPECT_DOUBLE_EQ(parsed->delta_row_ns, profile.delta_row_ns);
  EXPECT_DOUBLE_EQ(parsed->jit_speed_factor, profile.jit_speed_factor);
  EXPECT_DOUBLE_EQ(parsed->jit_compile_millis, profile.jit_compile_millis);
  for (size_t i = 0; i < cost::kNumEngines; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(parsed->engines[i].available, profile.engines[i].available);
    if (!profile.engines[i].available) continue;
    for (size_t e = 0; e < cost::kNumEncClasses; ++e) {
      EXPECT_DOUBLE_EQ(parsed->engines[i].first_ns[e],
                       profile.engines[i].first_ns[e]);
      EXPECT_DOUBLE_EQ(parsed->engines[i].rest_ns[e],
                       profile.engines[i].rest_ns[e]);
    }
    EXPECT_DOUBLE_EQ(parsed->engines[i].emit_ns, profile.engines[i].emit_ns);
  }
}

TEST(CostProfileTest, ParseRejectsVersionMismatch) {
  std::string text = CostProfile::Defaults().Serialize();
  const std::string header = "fts-cost-profile v1";
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "fts-cost-profile v2");
  EXPECT_FALSE(CostProfile::Parse(text).ok());
}

TEST(CostProfileTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(CostProfile::Parse("").ok());
  EXPECT_FALSE(CostProfile::Parse("not a profile\n").ok());
  EXPECT_FALSE(
      CostProfile::Parse("fts-cost-profile v1\nbogus_key 3\n").ok());
  EXPECT_FALSE(
      CostProfile::Parse("fts-cost-profile v1\nengine warp-drive first\n")
          .ok());
  EXPECT_FALSE(CostProfile::Parse(
                   "fts-cost-profile v1\nengine scalar-fused first 1 2\n")
                   .ok());
}

TEST(CostProfileTest, FastCalibrationMeasuresThisMachine) {
  // Direct Calibrate() (not the cached CalibratedProfile()) so the test
  // owns its run; FTS_CALIBRATE_FAST was pinned above.
  const CostProfile profile = CostProfile::Calibrate();
  EXPECT_TRUE(profile.calibrated);
  EXPECT_EQ(profile.cpu, GetCpuFeatures().ToString());
  // Exactly the adaptation set is calibrated: the SISD pair and the best
  // fused engine (the default request and the ranking engine), whose
  // constants must come out positive in every encoding class, plus kJit
  // derived from the best fused engine.
  const ScanEngine best = Database::DefaultEngine();
  EXPECT_EQ(best, cost::BestFusedEngine());
  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec, best}) {
    const cost::EngineCostConstants& e = profile.For(engine);
    ASSERT_TRUE(e.available) << ScanEngineToString(engine);
    for (size_t c = 0; c < cost::kNumEncClasses; ++c) {
      EXPECT_GT(e.first_ns[c], 0.0) << ScanEngineToString(engine);
      EXPECT_GT(e.rest_ns[c], 0.0) << ScanEngineToString(engine);
    }
  }
  // A zero emit would price every gathered kernel cell at nothing.
  for (const ScanEngine engine : {ScanEngine::kSisdNoVec,
                                  ScanEngine::kSisdAutoVec, best,
                                  ScanEngine::kJit}) {
    EXPECT_GT(profile.For(engine).emit_ns, 0.0) << ScanEngineToString(engine);
  }
  for (size_t i = 0; i < cost::kNumEngines; ++i) {
    const auto engine = static_cast<ScanEngine>(i);
    const bool expected = engine == ScanEngine::kSisdNoVec ||
                          engine == ScanEngine::kSisdAutoVec ||
                          engine == best || engine == ScanEngine::kJit;
    EXPECT_EQ(profile.For(engine).available, expected)
        << ScanEngineToString(engine);
  }
  const cost::EngineCostConstants& jit = profile.For(ScanEngine::kJit);
  EXPECT_DOUBLE_EQ(jit.first_ns[0],
                   profile.For(best).first_ns[0] * profile.jit_speed_factor);
  EXPECT_GT(profile.rle_run_ns, 0.0);
  EXPECT_GT(profile.delta_block_ns, 0.0);
  EXPECT_GT(profile.delta_row_ns, 0.0);
  // And the measurement round-trips through the on-disk format.
  const auto parsed = CostProfile::Parse(profile.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->calibrated);
  EXPECT_EQ(parsed->cpu, profile.cpu);
}

TEST(CostProfileTest, ParseRejectsIncompleteCalibratedProfile) {
  // What Calibrate() writes: the SISD pair, the best fused engine and the
  // derived kJit, in that (enum) order, then the scalar constants.
  CostProfile profile = CostProfile::Defaults();
  profile.calibrated = true;
  for (size_t i = 0; i < cost::kNumEngines; ++i) {
    const auto engine = static_cast<ScanEngine>(i);
    profile.engines[i].available =
        engine == ScanEngine::kSisdNoVec ||
        engine == ScanEngine::kSisdAutoVec ||
        engine == cost::BestFusedEngine() || engine == ScanEngine::kJit;
  }
  const std::string text = profile.Serialize();
  ASSERT_TRUE(CostProfile::Parse(text).ok());

  // Without the best fused engine's line, `calibrated 1` must not parse,
  // so the loader recalibrates instead of running with adaptation
  // silently degraded.
  size_t begin = text.find("\nengine ");  // The third engine line.
  for (int i = 0; i < 2; ++i) begin = text.find("\nengine ", begin + 1);
  ASSERT_NE(begin, std::string::npos);
  const size_t end = text.find('\n', begin + 1);
  EXPECT_FALSE(
      CostProfile::Parse(text.substr(0, begin) + text.substr(end)).ok());

  // A file cut short at any line boundary never loads as calibrated.
  for (size_t cut = text.find('\n'); cut + 1 < text.size();
       cut = text.find('\n', cut + 1)) {
    const auto parsed = CostProfile::Parse(text.substr(0, cut + 1));
    EXPECT_FALSE(parsed.ok() && parsed->calibrated)
        << text.substr(0, cut + 1);
  }
}

TEST(CostProfileTest, DirectPackedFixtureMatchesFromValues) {
  // The fast-size calibration fixture: its directly written 9-bit stream
  // must be byte for byte what BitPackedColumn::FromValues builds.
  constexpr size_t kRows = size_t{1} << 14;
  std::vector<uint32_t> values(kRows);
  AlignedVector<int32_t> codes(kRows);
  cost::internal::FillCalibrationColumns(kRows, values.data(), codes.data());
  const BitPackedColumn<int32_t> direct =
      cost::internal::PackCalibrationCodes(codes);
  const BitPackedColumn<int32_t> reference =
      BitPackedColumn<int32_t>::FromValues(codes);
  EXPECT_EQ(direct.dictionary(), reference.dictionary());
  EXPECT_EQ(direct.dictionary().size(), cost::internal::kCalibrationCodes);
  ASSERT_EQ(direct.bit_width(), 9);
  ASSERT_EQ(direct.bit_width(), reference.bit_width());
  ASSERT_EQ(direct.packed_bytes(), reference.packed_bytes());
  EXPECT_EQ(std::memcmp(direct.scan_data(), reference.scan_data(),
                        direct.packed_bytes() + kBitPackedSlackBytes),
            0);
}

TEST(CostModelTest, GatherCostFallsBackToBestFusedEmit) {
  // An engine without constants prices its gathered kernel cells with the
  // best fused engine's emit constant; compressed cells keep their own.
  const CostProfile& profile = cost::DefaultProfile();
  ASSERT_FALSE(profile.For(ScanEngine::kBlockwise).available);
  const uint64_t cells[6] = {1000, 0, 0, 10, 0, 0};
  EXPECT_DOUBLE_EQ(
      cost::GatherCostNs(profile, ScanEngine::kBlockwise, cells),
      1000 * profile.For(cost::BestFusedEngine()).emit_ns +
          10 * profile.compressed_emit_ns);
}

TEST(CostModelTest, UniformSelectivityEndpoints) {
  using cost::EstimateUniformSelectivity;
  // Integral [0, 9]: ten distinct values.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kEq, 4), 0.1);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kLt, 5), 0.5);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kLe, 9), 1.0);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kGt, 9), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kGe, 0), 1.0);
  // Out-of-range literals decide the predicate outright.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kEq, 100), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(0, 9, CompareOp::kNe, 100), 1.0);
  // Degenerate bounds estimate nothing.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<int32_t>(5, 4, CompareOp::kLt, 5), 0.5);
  // Floating domains: kEq is a nominal sliver, ranges are proportional.
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<double>(0.0, 10.0, CompareOp::kEq, 5.0),
      0.001);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<double>(0.0, 10.0, CompareOp::kLt, 2.5),
      0.25);
  EXPECT_DOUBLE_EQ(
      EstimateUniformSelectivity<double>(0.0, 10.0, CompareOp::kGe, 12.0),
      0.0);
}

TEST(CostModelTest, ChainCostMonotonicInSelectivityAndRows) {
  const CostProfile& profile = cost::DefaultProfile();
  const auto chain = [](double first_sel) {
    return std::vector<cost::StageCost>{
        {cost::EncClass::kPlain32, first_sel},
        {cost::EncClass::kPlain32, 0.5}};
  };
  double previous = -1.0;
  for (const double sel : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    const double cost_ns =
        cost::ChainCostNs(profile, ScanEngine::kScalarFused, chain(sel), 1e6);
    EXPECT_GT(cost_ns, previous) << "sel=" << sel;
    previous = cost_ns;
  }
  const double small =
      cost::ChainCostNs(profile, ScanEngine::kScalarFused, chain(0.5), 1e5);
  const double large =
      cost::ChainCostNs(profile, ScanEngine::kScalarFused, chain(0.5), 1e6);
  EXPECT_GT(large, small);
  EXPECT_NEAR(large / small, 10.0, 0.01);
}

TEST(CostModelTest, StageRankPrefersSelectiveStages) {
  const CostProfile& profile = cost::DefaultProfile();
  // Same per-row cost: the stage that filters more ranks first.
  EXPECT_LT(cost::StageRank(profile, ScanEngine::kScalarFused,
                            cost::EncClass::kPlain32, 0.01),
            cost::StageRank(profile, ScanEngine::kScalarFused,
                            cost::EncClass::kPlain32, 0.9));
  // A stage that filters nothing ranks (effectively) last regardless of
  // how cheap it is.
  EXPECT_GT(cost::StageRank(profile, ScanEngine::kScalarFused,
                            cost::EncClass::kPlain32, 1.0),
            cost::StageRank(profile, ScanEngine::kScalarFused,
                            cost::EncClass::kPacked, 0.99));
}

// Two chunk types with opposite value distributions under one conjunction:
// the per-chunk ranking must order each chunk's chain differently, and the
// reordering must not change a single output position.
class AdversarialSkewTest : public ::testing::Test {
 protected:
  static TablePtr BuildSkewTable() {
    constexpr size_t kRowsPerChunk = 1024;
    TableBuilder builder(
        {{"c0", DataType::kInt32}, {"c1", DataType::kInt32}},
        kRowsPerChunk);
    // Chunk 0: c0 wide [0, 1000], c1 narrow [0, 10] -> under
    // `c0 < 5 AND c1 < 5` the c0 stage is far more selective (~0.005 vs
    // ~0.45) and must stay first. Chunk 1 swaps the columns, so the same
    // conjunction must flip its order there.
    for (size_t r = 0; r < kRowsPerChunk; ++r) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(r % 1001)),
                                Value(static_cast<int32_t>(r % 11))})
                    .ok());
    }
    for (size_t r = 0; r < kRowsPerChunk; ++r) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(r % 11)),
                                Value(static_cast<int32_t>(r % 1001))})
                    .ok());
    }
    return builder.Build();
  }

  static ScanSpec SkewSpec() {
    ScanSpec spec;
    spec.predicates = {{"c0", CompareOp::kLt, Value(int32_t{5})},
                       {"c1", CompareOp::kLt, Value(int32_t{5})}};
    return spec;
  }
};

TEST_F(AdversarialSkewTest, PerChunkReorderFollowsZoneSelectivity) {
  const TablePtr table = BuildSkewTable();
  const ScanSpec spec = SkewSpec();

  ScopedAdaptive adaptive(true);
  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->model_active());
  ASSERT_EQ(prepared->chunk_plans().size(), 2u);

  // Chunk 0 keeps the spec order (c0 already most selective); chunk 1
  // flips to run its selective c1 stage first.
  const TableScanner::ChunkPlan& keep = prepared->chunk_plans()[0];
  const TableScanner::ChunkPlan& flip = prepared->chunk_plans()[1];
  EXPECT_FALSE(keep.reordered);
  EXPECT_TRUE(flip.reordered);
  EXPECT_EQ(prepared->chunks_reordered(), 1u);
  // In both chunks the executed-first stage is the selective one.
  ASSERT_EQ(keep.stages.size(), 2u);
  ASSERT_EQ(flip.stages.size(), 2u);
  EXPECT_LT(keep.stage_sel[0], keep.stage_sel[1]);
  EXPECT_LT(flip.stage_sel[0], flip.stage_sel[1]);
  // The estimate sees the skew: ~5/1001 * ~5/11 of each chunk.
  EXPECT_GT(prepared->est_rows(), 0.0);
  EXPECT_LT(prepared->est_rows(), 100.0);

  // Predicted cost is positive for every engine the model compares.
  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        cost::BestFusedEngine()}) {
    const double ns = prepared->EstimateScanNanos(engine);
    EXPECT_GT(ns, 0.0) << ScanEngineToString(engine);
  }
}

TEST_F(AdversarialSkewTest, ReorderedChainIsByteIdenticalToStatic) {
  const TablePtr table = BuildSkewTable();
  const ScanSpec spec = SkewSpec();

  StatusOr<TableScanner> off = Status::Internal("unset");
  StatusOr<TableScanner> on = Status::Internal("unset");
  {
    ScopedAdaptive adaptive(false);
    off = TableScanner::Prepare(table, spec);
  }
  {
    ScopedAdaptive adaptive(true);
    on = TableScanner::Prepare(table, spec);
  }
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_FALSE(off->model_active());
  EXPECT_EQ(off->chunks_reordered(), 0u);

  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused512}) {
    if (!ScanEngineAvailable(engine)) continue;
    const ParallelScanOptions options = testing::StrictOptions({engine, 0});
    const auto static_matches = ExecuteParallelScan(*off, options);
    const auto ranked_matches = ExecuteParallelScan(*on, options);
    ASSERT_TRUE(static_matches.ok()) << ScanEngineToString(engine);
    ASSERT_TRUE(ranked_matches.ok()) << ScanEngineToString(engine);
    ASSERT_EQ(static_matches->chunks.size(), ranked_matches->chunks.size());
    for (size_t i = 0; i < static_matches->chunks.size(); ++i) {
      EXPECT_EQ(static_matches->chunks[i].positions,
                ranked_matches->chunks[i].positions)
          << ScanEngineToString(engine) << " chunk " << i;
    }
    const auto static_count = ExecuteParallelScanCount(*off, options);
    const auto ranked_count = ExecuteParallelScanCount(*on, options);
    ASSERT_TRUE(static_count.ok() && ranked_count.ok());
    EXPECT_EQ(*static_count, *ranked_count) << ScanEngineToString(engine);
  }
}

TEST_F(AdversarialSkewTest, AdaptiveEngineNeverChangesResults) {
  const TablePtr table = BuildSkewTable();

  ScanSpec pinned = SkewSpec();
  ScanSpec adaptive_spec = SkewSpec();
  adaptive_spec.adaptive = true;

  ScopedAdaptive adaptive(true);
  const auto pinned_scan = TableScanner::Prepare(table, pinned);
  const auto adaptive_scan = TableScanner::Prepare(table, adaptive_spec);
  ASSERT_TRUE(pinned_scan.ok());
  ASSERT_TRUE(adaptive_scan.ok());
  // An explicit engine request pins every chunk; only spec.adaptive frees
  // the model to switch.
  EXPECT_FALSE(pinned_scan->adaptive());
  EXPECT_TRUE(adaptive_scan->adaptive());

  const ScanEngine requested = ScanEngineAvailable(ScanEngine::kAvx512Fused512)
                                   ? ScanEngine::kAvx512Fused512
                                   : ScanEngine::kScalarFused;
  // A pinned scanner's AdaptEngine is the identity.
  for (ChunkId chunk = 0; chunk < table->chunk_count(); ++chunk) {
    EXPECT_EQ(pinned_scan->AdaptEngine({requested, 0}, chunk).engine,
              requested);
  }
  // The adaptive scanner may switch, but never upward past the request
  // and never to an unavailable engine.
  for (ChunkId chunk = 0; chunk < table->chunk_count(); ++chunk) {
    const ScanEngine picked =
        adaptive_scan->AdaptEngine({requested, 0}, chunk).engine;
    EXPECT_TRUE(ScanEngineAvailable(picked)) << ScanEngineToString(picked);
  }

  // Every AdaptEngine call (including the probes above) records its
  // decision; measure the execution's own contribution as a delta.
  uint64_t before = 0;
  for (const auto& counter : adaptive_scan->adaptive_stats()->chunk_engines) {
    before += counter.load();
  }

  const ParallelScanOptions options = testing::StrictOptions({requested, 0});
  const auto pinned_matches = ExecuteParallelScan(*pinned_scan, options);
  const auto adaptive_matches = ExecuteParallelScan(*adaptive_scan, options);
  ASSERT_TRUE(pinned_matches.ok());
  ASSERT_TRUE(adaptive_matches.ok());
  ASSERT_EQ(pinned_matches->chunks.size(), adaptive_matches->chunks.size());
  for (size_t i = 0; i < pinned_matches->chunks.size(); ++i) {
    EXPECT_EQ(pinned_matches->chunks[i].positions,
              adaptive_matches->chunks[i].positions)
        << "chunk " << i;
  }
  // The decisions were recorded: every runnable chunk shows up in the
  // engine mix exactly once per execution.
  uint64_t after = 0;
  for (const auto& counter : adaptive_scan->adaptive_stats()->chunk_engines) {
    after += counter.load();
  }
  EXPECT_EQ(after - before, table->chunk_count());
}

TEST_F(AdversarialSkewTest, UncalibratedRequestStaysUnchanged) {
  // A fused engine outside the calibrated adaptation set has no constants
  // to price: AdaptEngine keeps the request instead of comparing the
  // candidates against a 0 ns estimate, and still counts the chunk.
  ScanEngine uncalibrated = ScanEngine::kBlockwise;
  for (const ScanEngine engine :
       {ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256}) {
    if (engine != cost::BestFusedEngine() && ScanEngineAvailable(engine)) {
      uncalibrated = engine;
      break;
    }
  }
  if (uncalibrated == ScanEngine::kBlockwise) {
    GTEST_SKIP() << "only the best fused engine runs on this CPU";
  }
  const TablePtr table = BuildSkewTable();
  ScanSpec spec = SkewSpec();
  spec.adaptive = true;
  ScopedAdaptive adaptive(true);
  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->adaptive());
  ASSERT_FALSE(cost::CalibratedProfile().For(uncalibrated).available);

  const TableScanner::AdaptiveStats& stats = *prepared->adaptive_stats();
  const size_t index = static_cast<size_t>(uncalibrated);
  for (ChunkId chunk = 0; chunk < table->chunk_count(); ++chunk) {
    const uint64_t counted = stats.chunk_engines[index].load();
    EXPECT_EQ(prepared->AdaptEngine({uncalibrated, 0}, chunk).engine,
              uncalibrated);
    EXPECT_EQ(stats.chunk_engines[index].load(), counted + 1);
  }
  EXPECT_EQ(stats.engine_switches.load(), 0u);
}

TEST_F(AdversarialSkewTest, KillSwitchDisablesModelEntirely) {
  const TablePtr table = BuildSkewTable();
  ScanSpec spec = SkewSpec();
  spec.adaptive = true;

  ScopedAdaptive adaptive(false);
  const auto prepared = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->model_active());
  EXPECT_FALSE(prepared->adaptive());
  EXPECT_EQ(prepared->chunks_reordered(), 0u);
  for (const TableScanner::ChunkPlan& plan : prepared->chunk_plans()) {
    EXPECT_FALSE(plan.reordered);
  }
  // With the model off AdaptEngine is the identity even for spec.adaptive.
  EXPECT_EQ(prepared->AdaptEngine({ScanEngine::kScalarFused, 0}, 0).engine,
            ScanEngine::kScalarFused);
}

}  // namespace
}  // namespace fts
