// Figure 7: runtime vs number of predicates (2-5). First predicate
// matches 1% of rows; each following predicate matches 50% of the
// remainder. 32M rows in the paper (scaled here).
//
// Paper expectation: the SISD runtime stays roughly flat-to-rising while
// the fused variants barely grow — the relative benefit increases with
// the predicate count (gathers touch only surviving rows).

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/string_util.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"

namespace {
using namespace fts::bench;
using fts::ScanEngine;

constexpr ScanEngine kEngines[] = {
    ScanEngine::kSisdAutoVec,
    ScanEngine::kAvx2Fused128,
    ScanEngine::kAvx512Fused512,
};

}  // namespace

int main() {
  PrintTitle(
      "Figure 7 -- Median runtime (ms) vs number of predicates "
      "(pred1 = 1%, rest = 50%)");
  const size_t rows = ScaleRows(FullScale() ? 32'000'000 : MaxRows());
  const int reps = Reps();
  std::printf("rows = %zu, reps = %d\n\n", rows, reps);

  std::printf("%-12s", "#preds");
  for (const ScanEngine engine : kEngines) {
    std::printf("%24s", fts::ScanEngineToString(engine));
  }
  std::printf("\n");
  PrintRule('-', 12 + 24 * 3);

  for (size_t num_predicates = 2; num_predicates <= 5; ++num_predicates) {
    fts::ScanTableOptions options;
    options.rows = rows;
    options.selectivities.assign(num_predicates, 0.5);
    options.selectivities[0] = 0.01;
    options.seed = 0xF7;
    const fts::GeneratedScanTable generated = fts::MakeScanTable(options);

    fts::ScanSpec spec;
    for (size_t p = 0; p < num_predicates; ++p) {
      spec.predicates.push_back({fts::StrFormat("c%zu", p),
                                 fts::CompareOp::kEq,
                                 fts::Value(generated.search_values[p])});
    }
    auto scanner = fts::TableScanner::Prepare(generated.table, spec);
    FTS_CHECK(scanner.ok());

    std::printf("%-12zu", num_predicates);
    std::vector<std::pair<ScanEngine, double>> measured;
    for (const ScanEngine engine : kEngines) {
      if (!fts::ScanEngineAvailable(engine)) {
        std::printf("%24s", "n/a");
        continue;
      }
      FTS_CHECK(*RunSerial(fts::ExecuteParallelScanCount, *scanner,
                           {engine, 0}) == generated.stage_matches.back());
      const double ms = MedianMillis(reps, [&] {
        fts::DoNotOptimizeAway(
            RunSerial(fts::ExecuteParallelScanCount, *scanner, {engine, 0})
                .ok());
      });
      std::printf("%24.3f", ms);
      measured.emplace_back(engine, ms);
    }
    std::printf("\n");
    for (const auto& [engine, ms] : measured) {
      BenchLine("fig7_predicate_count")
          .Field("predicates", static_cast<uint64_t>(num_predicates))
          .Field("engine", fts::ScanEngineToString(engine))
          .Field("rows", static_cast<uint64_t>(rows))
          .Field("median_ms", ms)
          .Emit();
    }
  }
  std::printf(
      "\nShape check vs the paper: the fused runtimes grow far slower "
      "with the predicate count than SISD.\n");
  return 0;
}
