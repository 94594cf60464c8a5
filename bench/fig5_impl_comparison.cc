// Figure 5: median runtime of the six scan implementations over 32M rows
// (scaled by FTS_BENCH_MAX_ROWS) for matching-row percentages from 1e-5%
// to 100%.
//
// Paper expectation: every fused variant beats both SISD baselines at all
// selectivities; AVX-512 beats the AVX2 backport; wider registers are
// faster, with a larger 128->256 gap than 256->512.

#include <cstdio>

#include "bench/bench_util.h"
#include "fts/common/cpu_info.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"

namespace {

using fts::ScanEngine;
using namespace fts::bench;

constexpr ScanEngine kEngines[] = {
    ScanEngine::kSisdNoVec,      ScanEngine::kSisdAutoVec,
    ScanEngine::kAvx2Fused128,   ScanEngine::kAvx512Fused128,
    ScanEngine::kAvx512Fused256, ScanEngine::kAvx512Fused512,
};

}  // namespace

int main() {
  PrintTitle(
      "Figure 5 -- Median runtime (ms) vs matching rows (%), "
      "2 eq-predicates");
  const size_t rows = ScaleRows(FullScale() ? 32'000'000 : MaxRows());
  const int reps = Reps();
  std::printf("rows = %zu, reps = %d, CPU: %s\n\n", rows, reps,
              fts::GetCpuFeatures().ToString().c_str());

  // Matching-rows percentages from the paper's x-axis (1e-5 .. 100).
  const double kSelectivities[] = {1e-7, 1e-6, 1e-5, 1e-4,
                                   1e-3, 1e-2, 0.1,  0.5, 1.0};

  std::printf("%-12s", "match%");
  for (const ScanEngine engine : kEngines) {
    std::printf("%22s", fts::ScanEngineToString(engine));
  }
  std::printf("\n");
  PrintRule('-', 12 + 22 * 6);

  std::vector<BenchLine> bench_lines;

  for (const double selectivity : kSelectivities) {
    fts::ScanTableOptions options;
    options.rows = rows;
    options.selectivities = {selectivity, selectivity};
    options.seed = 0x515;
    const fts::GeneratedScanTable generated = fts::MakeScanTable(options);

    fts::ScanSpec spec;
    spec.predicates = {
        {"c0", fts::CompareOp::kEq, fts::Value(generated.search_values[0])},
        {"c1", fts::CompareOp::kEq, fts::Value(generated.search_values[1])}};

    std::printf("%-12g", selectivity * 100.0);
    for (const ScanEngine engine : kEngines) {
      if (!fts::ScanEngineAvailable(engine)) {
        std::printf("%22s", "n/a");
        continue;
      }
      auto scanner = fts::TableScanner::Prepare(generated.table, spec);
      FTS_CHECK(scanner.ok());
      // Correctness check once per configuration.
      const auto count =
          RunSerial(fts::ExecuteParallelScanCount, *scanner, {engine, 0});
      FTS_CHECK(count.ok());
      FTS_CHECK_MSG(*count == generated.stage_matches.back(),
                    fts::ScanEngineToString(engine));
      const double ms = MedianMillis(reps, [&] {
        const auto result =
            RunSerial(fts::ExecuteParallelScanCount, *scanner, {engine, 0});
        fts::DoNotOptimizeAway(result.ok());
      });
      std::printf("%22.3f", ms);
      bench_lines.push_back(BenchLine("fig5_impl_comparison")
                                .Field("engine",
                                       fts::ScanEngineToString(engine))
                                .Field("match_pct", selectivity * 100.0)
                                .Field("rows", static_cast<uint64_t>(rows))
                                .Field("median_ms", ms));
    }
    std::printf("\n");
  }
  // BENCH lines after the table so the human-readable grid stays aligned.
  for (BenchLine& line : bench_lines) line.Emit();
  std::printf(
      "\nShape checks vs the paper: fused < SISD everywhere; "
      "AVX-512(128) < AVX2(128); 512 < 256 < 128.\n");
  return 0;
}
