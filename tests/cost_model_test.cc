// Calibrated cost model (fts/cost, DESIGN.md §14): profile round-trip and
// version invalidation, selectivity estimation, chain-cost monotonicity,
// and the per-chunk behaviors the model drives inside TableScanner —
// re-ranking on adversarial skew and engine adaptation that never changes
// results.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

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

  const auto parsed = CostProfile::Parse(profile.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, CostProfile::kVersion);
  EXPECT_EQ(parsed->cpu, profile.cpu);
  EXPECT_TRUE(parsed->calibrated);
  EXPECT_DOUBLE_EQ(parsed->rle_run_ns, profile.rle_run_ns);
  EXPECT_DOUBLE_EQ(parsed->delta_block_ns, profile.delta_block_ns);
  EXPECT_DOUBLE_EQ(parsed->delta_row_ns, profile.delta_row_ns);
  EXPECT_DOUBLE_EQ(parsed->jit_speed_factor, profile.jit_speed_factor);
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
  const std::string header = "fts-cost-profile v2";
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "fts-cost-profile v1");
  EXPECT_FALSE(CostProfile::Parse(text).ok());
}

TEST(CostProfileTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(CostProfile::Parse("").ok());
  EXPECT_FALSE(CostProfile::Parse("not a profile\n").ok());
  EXPECT_FALSE(
      CostProfile::Parse("fts-cost-profile v2\nbogus_key 3\n").ok());
  // Version 1's compile constant is gone with the compile share it priced.
  EXPECT_FALSE(
      CostProfile::Parse("fts-cost-profile v2\njit_compile_millis 150\n")
          .ok());
  EXPECT_FALSE(
      CostProfile::Parse("fts-cost-profile v2\nengine warp-drive first\n")
          .ok());
  EXPECT_FALSE(CostProfile::Parse(
                   "fts-cost-profile v2\nengine scalar-fused first 1 2\n")
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

  const ParallelScanOptions options = testing::StrictOptions({requested, 0});
  ExecutionReport report;
  const auto pinned_matches = ExecuteParallelScan(*pinned_scan, options);
  const auto adaptive_matches =
      ExecuteParallelScan(*adaptive_scan, options, &report);
  ASSERT_TRUE(pinned_matches.ok());
  ASSERT_TRUE(adaptive_matches.ok());
  ASSERT_EQ(pinned_matches->chunks.size(), adaptive_matches->chunks.size());
  for (size_t i = 0; i < pinned_matches->chunks.size(); ++i) {
    EXPECT_EQ(pinned_matches->chunks[i].positions,
              adaptive_matches->chunks[i].positions)
        << "chunk " << i;
  }
  // One decision per runnable chunk, whatever the probes above asked. A
  // strict static request leaves its engine only by the model's pick.
  EXPECT_TRUE(report.adaptive_engines);
  EXPECT_EQ(report.morsel_count, table->chunk_count());
  ASSERT_EQ(report.morsel_choices.size(), table->chunk_count());
  uint64_t switched = 0;
  for (const EngineChoice& choice : report.morsel_choices) {
    if (choice.engine != requested) ++switched;
  }
  EXPECT_EQ(report.adaptive_engine_switches, switched);
}

TEST_F(AdversarialSkewTest, UncalibratedRequestStaysUnchanged) {
  // A fused engine outside the calibrated adaptation set has no constants
  // to price: AdaptEngine keeps the request instead of comparing the
  // candidates against a 0 ns estimate, so the scan switches nothing.
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

  for (ChunkId chunk = 0; chunk < table->chunk_count(); ++chunk) {
    EXPECT_EQ(prepared->AdaptEngine({uncalibrated, 0}, chunk).engine,
              uncalibrated);
  }
  ExecutionReport report;
  ASSERT_TRUE(ExecuteParallelScan(
                  *prepared, testing::StrictOptions({uncalibrated, 0}),
                  &report)
                  .ok());
  EXPECT_EQ(report.morsel_choices.size(), table->chunk_count());
  for (const EngineChoice& choice : report.morsel_choices) {
    EXPECT_EQ(choice.engine, uncalibrated);
  }
  EXPECT_EQ(report.adaptive_engine_switches, 0u);
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

// The counters of a scan describe that run alone: a prepared scanner
// holds no execution state, so rerunning it, at any thread count, and
// asking AdaptEngine in between change no count in its report.
TEST(ScanCountersTest, ReusedScannerReportsEachRunAlone) {
  // Four chunks: RLE `r` with delta `d`, RLE `r` alone, delta `d` alone,
  // and a plain chunk the kernels scan and fold. `d` climbs by one per row
  // within a chunk, so `d < 2600` answers blocks 0, 1 and 3 of each delta
  // chunk from min/max and decodes block 2.
  constexpr size_t kChunkRows = 4096;
  constexpr ColumnEncoding kR[] = {ColumnEncoding::kRle, ColumnEncoding::kRle,
                                   ColumnEncoding::kPlain,
                                   ColumnEncoding::kPlain};
  constexpr ColumnEncoding kD[] = {ColumnEncoding::kDelta,
                                   ColumnEncoding::kPlain,
                                   ColumnEncoding::kDelta,
                                   ColumnEncoding::kPlain};
  TableBuilder builder({{"r", DataType::kInt32}, {"d", DataType::kInt32}},
                       kChunkRows);
  for (size_t chunk = 0; chunk < std::size(kR); ++chunk) {
    builder.SetEncoding(0, kR[chunk]);
    builder.SetEncoding(1, kD[chunk]);
    for (size_t row = 0; row < kChunkRows; ++row) {
      FTS_CHECK(builder
                    .AppendRow({Value(static_cast<int32_t>(row / 16 % 10)),
                                Value(static_cast<int32_t>(row))})
                    .ok());
    }
  }
  const TablePtr table = builder.Build();
  ScanSpec spec;
  spec.predicates = {{"r", CompareOp::kLt, Value(int32_t{5})},
                     {"d", CompareOp::kLt, Value(int32_t{2600})}};
  spec.aggregates = {{AggOp::kSum, "d"}, {AggOp::kCount, ""}};
  spec.adaptive = true;
  ScopedAdaptive adaptive(true);
  const auto scanner = TableScanner::Prepare(table, spec);
  ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
  ASSERT_TRUE(scanner->adaptive());
  ASSERT_EQ(scanner->chunk_plans().size(), 4u);

  // Every count a morsel contributes, by name.
  const auto counters = [](const ExecutionReport& report) {
    return std::vector<std::pair<std::string, uint64_t>>{
        {"morsel_count", report.morsel_count},
        {"rle_runs_classified", report.rle_runs_classified},
        {"rle_runs_skipped", report.rle_runs_skipped},
        {"delta_blocks_pruned", report.delta_blocks_pruned},
        {"delta_blocks_decoded", report.delta_blocks_decoded},
        {"agg_kernel_chunks", report.agg_kernel_chunks},
        {"agg_positions_chunks", report.agg_positions_chunks},
        {"agg_delta_blocks", report.agg_delta_blocks},
        {"adaptive_engine_switches", report.adaptive_engine_switches},
        {"jit_cache_hits", report.jit_cache_hits},
        {"jit_cache_misses", report.jit_cache_misses}};
  };
  const auto probe_model = [&] {
    for (ChunkId chunk = 0; chunk < 4; ++chunk) {
      scanner->AdaptEngine({cost::BestFusedEngine(), 0}, chunk);
    }
  };

  std::vector<std::pair<std::string, uint64_t>> first_scan, first_fold;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ParallelScanOptions options;
    options.requested = {cost::BestFusedEngine(), 0};
    options.threads = threads;
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(run);
      probe_model();
      ExecutionReport scan;
      ASSERT_TRUE(ExecuteParallelScan(*scanner, options, &scan).ok());
      probe_model();
      ExecutionReport fold;
      ASSERT_TRUE(
          ExecuteParallelScanAggregate(*scanner, options, &fold).ok());
      if (first_scan.empty()) {
        first_scan = counters(scan);
        first_fold = counters(fold);
        // Three chunks run a compressed-domain stage and fold through
        // positions (the delta ones decode blocks 0-2 for SUM(d)); the
        // plain chunk folds in the kernel loop.
        EXPECT_EQ(scan.morsel_count, 4u);
        EXPECT_GT(scan.rle_runs_classified, 0u);
        EXPECT_GT(scan.rle_runs_skipped, 0u);
        EXPECT_EQ(scan.delta_blocks_pruned, 6u);
        EXPECT_EQ(scan.delta_blocks_decoded, 2u);
        EXPECT_EQ(fold.delta_blocks_pruned, 6u);
        EXPECT_EQ(fold.agg_positions_chunks, 3u);
        EXPECT_EQ(fold.agg_kernel_chunks, 1u);
        EXPECT_EQ(fold.agg_delta_blocks, 6u);
        EXPECT_EQ(scan.agg_positions_chunks + scan.agg_kernel_chunks, 0u);
        continue;
      }
      EXPECT_EQ(counters(scan), first_scan);
      EXPECT_EQ(counters(fold), first_fold);
    }
  }
}

}  // namespace
}  // namespace fts
