// Figure 9 (extension beyond the paper): zone-map chunk pruning. Sweeps a
// range predicate's selectivity over two physical layouts of the same
// value set:
//
//   clustered  c0[i] = i          -- disjoint per-chunk zones; a narrow
//                                    range touches few chunks, the rest are
//                                    skipped before any kernel runs
//   uniform    shuffled           -- every chunk spans the full domain, so
//                                    zone maps can never prune; measures
//                                    the overhead of consulting them
//
// Each configuration runs the full query path (Prepare + count) with zone
// maps on and off over the identical table, and self-verifies both counts
// against an unpruned SISD reference scan.
//
// Emits one machine-readable line per configuration:
//   BENCH {"figure":"fig9_zone_pruning","layout":"...","selectivity":...,
//          "pruned_ms":...,"unpruned_ms":...,"speedup":...,
//          "chunks_pruned":N,"chunks_total":N}
//
// Scaling knobs: FTS_BENCH_MAX_ROWS / FTS_BENCH_REPS / FTS_BENCH_FULL
// (see bench_util.h).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/cpu_info.h"
#include "fts/common/random.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {
using namespace fts::bench;
using fts::ScanEngine;

constexpr size_t kChunkSize = size_t{1} << 16;

// Bulk-ingests `values` as 64K-row chunks of one plain int32 column.
fts::TablePtr BuildTable(const std::vector<int32_t>& values) {
  fts::TableBuilder builder({{"c0", fts::DataType::kInt32}}, kChunkSize);
  for (size_t begin = 0; begin < values.size(); begin += kChunkSize) {
    const size_t rows = std::min(kChunkSize, values.size() - begin);
    fts::AlignedVector<int32_t> chunk(values.begin() + begin,
                                      values.begin() + begin + rows);
    FTS_CHECK(builder
                  .AddChunk({std::make_shared<fts::ValueColumn<int32_t>>(
                      std::move(chunk))})
                  .ok());
  }
  return builder.Build();
}

// The range [lo, hi] selecting `selectivity` of a permutation of 0..rows-1,
// centered in the domain so both range ends exercise pruning.
struct Range {
  int32_t lo;
  int32_t hi;
  uint64_t expected;  // Exact: the values are a permutation of 0..rows-1.
};

Range RangeForSelectivity(size_t rows, double selectivity) {
  const auto span = static_cast<uint64_t>(
      static_cast<double>(rows) * selectivity);
  const uint64_t lo = (rows - span) / 2;
  return {static_cast<int32_t>(lo), static_cast<int32_t>(lo + span - 1),
          span};
}

}  // namespace

int main() {
  PrintTitle(
      "Figure 9 -- Zone-map chunk pruning: range-predicate COUNT(*), "
      "clustered vs uniform layout, zone maps on vs off");
  const size_t rows = ScaleRows(FullScale() ? 64'000'000 : MaxRows());
  if (rows == 0) {
    std::printf("configuration skipped (FTS_BENCH_MAX_ROWS too small)\n");
    return 0;
  }
  const int reps = Reps();

  // Clustered: the identity permutation, so chunk k holds exactly
  // [k*64K, (k+1)*64K). Uniform: the same values Fisher-Yates-shuffled —
  // identical global content, maximally overlapping chunk zones.
  std::vector<int32_t> values(rows);
  for (size_t i = 0; i < rows; ++i) values[i] = static_cast<int32_t>(i);
  const fts::TablePtr clustered = BuildTable(values);
  fts::Xoshiro256 rng(0xF9);
  rng.Shuffle(values);
  const fts::TablePtr uniform = BuildTable(values);
  values.clear();
  values.shrink_to_fit();

  const ScanEngine engine =
      fts::GetCpuFeatures().HasFusedScanAvx512()
          ? ScanEngine::kAvx512Fused512
          : ScanEngine::kScalarFused;
  std::printf("rows = %zu, chunks = %zu, reps = %d, engine = %s\n\n", rows,
              clustered->chunk_count(), reps,
              fts::ScanEngineToString(engine));
  std::printf("%-12s%14s%14s%14s%10s%10s\n", "layout", "selectivity",
              "pruned_ms", "unpruned_ms", "speedup", "pruned");
  PrintRule('-', 74);

  const struct {
    const char* name;
    const fts::TablePtr& table;
  } layouts[] = {{"clustered", clustered}, {"uniform", uniform}};

  for (const auto& layout : layouts) {
    for (const double selectivity : {0.001, 0.01, 0.1, 0.5}) {
      const Range range = RangeForSelectivity(rows, selectivity);
      if (range.expected == 0) continue;
      fts::ScanSpec spec;
      spec.predicates = {
          {"c0", fts::CompareOp::kGe, fts::Value(range.lo)},
          {"c0", fts::CompareOp::kLe, fts::Value(range.hi)}};

      // Self-verification: the zone-pruned fused count must equal the
      // unpruned SISD reference on the same table.
      const auto unpruned_scanner = fts::TableScanner::Prepare(
          layout.table, spec,
          fts::TableScanner::PrepareOptions{.use_zone_maps = false});
      FTS_CHECK(unpruned_scanner.ok());
      const auto sisd = RunSerial(fts::ExecuteParallelScanCount,
                                  *unpruned_scanner,
                                  {ScanEngine::kSisdNoVec, 0});
      FTS_CHECK(sisd.ok() && *sisd == range.expected);
      const auto pruned_scanner =
          fts::TableScanner::Prepare(layout.table, spec);
      FTS_CHECK(pruned_scanner.ok());
      const auto pruned_count = RunSerial(fts::ExecuteParallelScanCount,
                                          *pruned_scanner, {engine, 0});
      FTS_CHECK(pruned_count.ok() && *pruned_count == range.expected);
      const fts::TableScanner::PruningSummary pruning =
          pruned_scanner->pruning();

      // Timed region = the full per-query cost: Prepare (where zone maps
      // are consulted) plus the count execution. The two variants are
      // sampled interleaved, not as two sequential blocks — clock drift on
      // a shared vCPU otherwise skews whichever block runs first by more
      // than the uniform-layout overhead being measured.
      std::vector<double> pruned_samples, unpruned_samples;
      for (int rep = 0; rep < reps; ++rep) {
        {
          fts::Stopwatch stopwatch;
          const auto scanner =
              fts::TableScanner::Prepare(layout.table, spec);
          const auto count =
              RunSerial(fts::ExecuteParallelScanCount, *scanner, {engine, 0});
          FTS_CHECK(count.ok() && *count == range.expected);
          pruned_samples.push_back(stopwatch.ElapsedMillis());
        }
        {
          fts::Stopwatch stopwatch;
          const auto scanner = fts::TableScanner::Prepare(
              layout.table, spec,
              fts::TableScanner::PrepareOptions{.use_zone_maps = false});
          const auto count =
              RunSerial(fts::ExecuteParallelScanCount, *scanner, {engine, 0});
          FTS_CHECK(count.ok() && *count == range.expected);
          unpruned_samples.push_back(stopwatch.ElapsedMillis());
        }
      }
      const double pruned_ms = fts::Median(pruned_samples);
      const double unpruned_ms = fts::Median(unpruned_samples);
      const double speedup = pruned_ms > 0.0 ? unpruned_ms / pruned_ms : 0.0;

      std::printf("%-12s%14.3f%14.3f%14.3f%9.2fx%6zu/%zu\n", layout.name,
                  selectivity, pruned_ms, unpruned_ms, speedup,
                  pruning.chunks_pruned, pruning.chunks_total);
      BenchLine("fig9_zone_pruning")
          .Field("layout", layout.name)
          .Field("selectivity", selectivity)
          .Field("pruned_ms", pruned_ms)
          .Field("unpruned_ms", unpruned_ms)
          .Field("speedup", speedup)
          .Field("chunks_pruned", static_cast<uint64_t>(pruning.chunks_pruned))
          .Field("chunks_total", static_cast<uint64_t>(pruning.chunks_total))
          .Emit();
    }
  }

  std::printf(
      "\nEvery configuration verified against the unpruned SISD reference "
      "count.\n");
  return 0;
}
