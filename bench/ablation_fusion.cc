// Ablation: what exactly buys the speedup?
//   1. Fusion vs materialization: the fused chain vs the classic
//      block-at-a-time pipeline that materializes a position list after
//      the first predicate (ScanEngine::kBlockwise).
//   2. Dictionary codes vs plain values: scanning uint32 codes behaves
//      identically to plain int32 (assumption 3 of the paper).
//   3. Predicate order: most-selective-first vs worst order — the gap the
//      optimizer's reordering rule closes.

#include <cstdio>

#include "bench/bench_util.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"

namespace {
using namespace fts::bench;
using fts::ScanEngine;

fts::StatusOr<uint64_t> Count(const fts::TableScanner& scanner,
                              ScanEngine engine) {
  return RunSerial(fts::ExecuteParallelScanCount, scanner, {engine, 0});
}
}  // namespace

int main() {
  PrintTitle("Ablations -- where the Fused Table Scan's win comes from");
  const size_t rows = ScaleRows(std::min(MaxRows(), size_t{8'000'000}));
  const int reps = Reps();
  const ScanEngine fused = fts::ScanEngineAvailable(
                               ScanEngine::kAvx512Fused512)
                               ? ScanEngine::kAvx512Fused512
                               : ScanEngine::kScalarFused;
  std::printf("rows = %zu, reps = %d, fused engine = %s\n", rows, reps,
              fts::ScanEngineToString(fused));

  // --- 1. Fusion vs materialized position lists.
  std::printf("\n[1] fusion vs materialization (2 predicates)\n");
  std::printf("%-12s %18s %18s %10s\n", "match%", "fused(ms)",
              "blockwise(ms)", "ratio");
  PrintRule('-', 62);
  for (const double selectivity : {0.001, 0.01, 0.1, 0.5}) {
    fts::ScanTableOptions options;
    options.rows = rows;
    options.selectivities = {selectivity, 0.5};
    options.seed = 0xAB1;
    const auto generated = fts::MakeScanTable(options);
    fts::ScanSpec spec;
    spec.predicates = {
        {"c0", fts::CompareOp::kEq, fts::Value(generated.search_values[0])},
        {"c1", fts::CompareOp::kEq, fts::Value(generated.search_values[1])}};
    auto scanner = fts::TableScanner::Prepare(generated.table, spec);
    FTS_CHECK(scanner.ok());
    FTS_CHECK(*Count(*scanner, fused) ==
              *Count(*scanner, ScanEngine::kBlockwise));
    const double fused_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(Count(*scanner, fused).ok());
    });
    const double blockwise_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(Count(*scanner, ScanEngine::kBlockwise).ok());
    });
    std::printf("%-12g %18.3f %18.3f %9.2fx\n", selectivity * 100,
                fused_ms, blockwise_ms, blockwise_ms / fused_ms);
  }

  // --- 2. Dictionary codes vs plain values.
  std::printf("\n[2] plain int32 vs dictionary codes (uint32)\n");
  std::printf("%-12s %18s %18s\n", "match%", "plain(ms)", "dict(ms)");
  PrintRule('-', 50);
  for (const double selectivity : {0.01, 0.5}) {
    fts::ScanTableOptions options;
    options.rows = rows;
    options.selectivities = {selectivity, 0.5};
    options.seed = 0xAB2;
    const auto plain = fts::MakeScanTable(options);
    options.dictionary_encode = true;
    const auto dict = fts::MakeScanTable(options);
    fts::ScanSpec spec;
    spec.predicates = {
        {"c0", fts::CompareOp::kEq, fts::Value(plain.search_values[0])},
        {"c1", fts::CompareOp::kEq, fts::Value(plain.search_values[1])}};
    auto plain_scan = fts::TableScanner::Prepare(plain.table, spec);
    auto dict_scan = fts::TableScanner::Prepare(dict.table, spec);
    FTS_CHECK(plain_scan.ok() && dict_scan.ok());
    FTS_CHECK(*Count(*plain_scan, fused) == *Count(*dict_scan, fused));
    const double plain_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(Count(*plain_scan, fused).ok());
    });
    const double dict_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(Count(*dict_scan, fused).ok());
    });
    std::printf("%-12g %18.3f %18.3f\n", selectivity * 100, plain_ms,
                dict_ms);
  }

  // --- 3. Predicate order.
  std::printf("\n[3] predicate order (0.1%% predicate vs 50%% predicate "
              "first)\n");
  {
    fts::ScanTableOptions options;
    options.rows = rows;
    options.selectivities = {0.001, 0.5};
    options.seed = 0xAB3;
    const auto generated = fts::MakeScanTable(options);
    fts::ScanSpec good, bad;
    good.predicates = {
        {"c0", fts::CompareOp::kEq, fts::Value(generated.search_values[0])},
        {"c1", fts::CompareOp::kEq, fts::Value(generated.search_values[1])}};
    bad.predicates = {good.predicates[1], good.predicates[0]};
    auto good_scan = fts::TableScanner::Prepare(generated.table, good);
    auto bad_scan = fts::TableScanner::Prepare(generated.table, bad);
    FTS_CHECK(good_scan.ok() && bad_scan.ok());
    FTS_CHECK(*Count(*good_scan, fused) == *Count(*bad_scan, fused));
    const double good_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(Count(*good_scan, fused).ok());
    });
    const double bad_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(Count(*bad_scan, fused).ok());
    });
    std::printf("selective first: %.3f ms, unselective first: %.3f ms "
                "(%.2fx)\n",
                good_ms, bad_ms, bad_ms / good_ms);
  }
  return 0;
}
