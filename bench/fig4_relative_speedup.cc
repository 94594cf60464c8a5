// Figure 4: relative performance of the Fused Table Scan (AVX-512, 512
// bit) over the data-centric SISD baseline, across table sizes and
// selectivities.
//
// Paper expectation: >= 2x in 32 of 40 cells, up to ~10x; the advantage
// holds across sizes. Cells whose selectivity would select < 1 row are
// omitted (as in the paper).

#include <cstdio>

#include "bench/bench_util.h"
#include "fts/common/string_util.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"

namespace {
using namespace fts::bench;
using fts::ScanEngine;
}  // namespace

int main() {
  PrintTitle(
      "Figure 4 -- Fused Table Scan speedup over SISD "
      "(table sizes x selectivities)");
  const int reps = Reps();

  const size_t kPaperSizes[] = {1'000,     10'000,     100'000,
                                1'000'000, 4'000'000,  16'000'000,
                                64'000'000, 132'000'000};
  const double kSelectivities[] = {0.5, 0.1, 0.01, 0.001, 1e-6};
  const ScanEngine fused = ScanEngine::kAvx512Fused512;
  const ScanEngine baseline = ScanEngine::kSisdAutoVec;

  if (!fts::ScanEngineAvailable(fused)) {
    std::printf("AVX-512 not available on this CPU; nothing to compare.\n");
    return 0;
  }
  std::printf("reps = %d, baseline = %s, fused = %s\n\n", reps,
              fts::ScanEngineToString(baseline),
              fts::ScanEngineToString(fused));

  std::printf("%-10s", "rows");
  for (const double sel : kSelectivities) std::printf("%12g%%", sel * 100.0);
  std::printf("\n");
  PrintRule('-', 10 + 13 * 5);

  int cells = 0, cells_2x = 0;
  double best = 0.0;
  for (const size_t requested : kPaperSizes) {
    const size_t rows = ScaleRows(requested);
    if (rows == 0) continue;  // Above the configured cap.
    std::printf("%-10s", fts::HumanRows(rows).c_str());
    for (const double selectivity : kSelectivities) {
      if (selectivity * static_cast<double>(rows) < 1.0) {
        std::printf("%13s", "-");  // Paper omits these bars.
        continue;
      }
      fts::ScanTableOptions options;
      options.rows = rows;
      options.selectivities = {selectivity, selectivity};
      options.seed = 0xF4;
      const fts::GeneratedScanTable generated = fts::MakeScanTable(options);
      fts::ScanSpec spec;
      spec.predicates = {{"c0", fts::CompareOp::kEq,
                          fts::Value(generated.search_values[0])},
                         {"c1", fts::CompareOp::kEq,
                          fts::Value(generated.search_values[1])}};
      auto scanner = fts::TableScanner::Prepare(generated.table, spec);
      FTS_CHECK(scanner.ok());
      FTS_CHECK(*RunSerial(fts::ExecuteParallelScanCount, *scanner,
                           {fused, 0}) == generated.stage_matches.back());

      const double sisd_ms = MedianMillis(reps, [&] {
        fts::DoNotOptimizeAway(
            RunSerial(fts::ExecuteParallelScanCount, *scanner, {baseline, 0})
                .ok());
      });
      const double fused_ms = MedianMillis(reps, [&] {
        fts::DoNotOptimizeAway(
            RunSerial(fts::ExecuteParallelScanCount, *scanner, {fused, 0})
                .ok());
      });
      const double speedup = sisd_ms / fused_ms;
      ++cells;
      cells_2x += (speedup >= 2.0);
      best = std::max(best, speedup);
      std::printf("%12.2fx", speedup);
    }
    std::printf("\n");
  }
  std::printf(
      "\n%d of %d measured cells show >= 2x (paper: 32 of 40); best "
      "speedup %.1fx (paper: ~10x).\n",
      cells_2x, cells, best);
  return 0;
}
