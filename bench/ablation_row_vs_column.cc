// Intro motivation: the row-versus-column-store comparison. The same
// logical data is scanned as (a) a row store (tuple-at-a-time over packed
// rows), (b) a column store with the SISD baseline, and (c) a column store
// with the Fused Table Scan. Wider rows make the row store touch ever more
// useless bytes per scanned predicate; the columnar scans touch only the
// predicate columns, and the fused scan only gathers surviving rows.

#include <cstdio>

#include "bench/bench_util.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/scan/row_store.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {
using namespace fts::bench;
using fts::AlignedVector;
using fts::ScanEngine;
}  // namespace

int main() {
  PrintTitle("Intro ablation -- row store vs column store scans");
  const size_t rows = ScaleRows(std::min(MaxRows(), size_t{2'000'000}));
  const int reps = std::max(3, Reps() / 3);  // Row-store appends are slow.
  const ScanEngine fused =
      fts::ScanEngineAvailable(ScanEngine::kAvx512Fused512)
          ? ScanEngine::kAvx512Fused512
          : ScanEngine::kScalarFused;
  std::printf("rows = %zu, reps = %d\n\n", rows, reps);
  std::printf("%-14s %14s %16s %16s\n", "payload cols", "row store(ms)",
              "column SISD(ms)", "column fused(ms)");
  PrintRule('-', 64);

  // 2 predicate columns + a growing payload (the columns a real table
  // carries but this query never reads).
  for (const size_t payload_columns : {0ul, 2ul, 6ul, 14ul}) {
    fts::Xoshiro256 rng(payload_columns + 1);
    const size_t total_columns = 2 + payload_columns;

    std::vector<fts::ColumnDefinition> schema;
    for (size_t c = 0; c < total_columns; ++c) {
      schema.push_back(
          {fts::StrFormat("c%zu", c), fts::DataType::kInt32});
    }

    // Predicate columns: ~1% and 50% match.
    std::vector<AlignedVector<int32_t>> data;
    for (size_t c = 0; c < total_columns; ++c) {
      if (c == 0) {
        const auto mask = fts::ExactSelectivityMask(
            rows, fts::MatchCountForSelectivity(rows, 0.01), rng);
        data.push_back(
            fts::FillFromMask<int32_t>(mask, 5, 1000, 1 << 30, rng));
      } else if (c == 1) {
        const auto mask = fts::ExactSelectivityMask(
            rows, fts::MatchCountForSelectivity(rows, 0.5), rng);
        data.push_back(
            fts::FillFromMask<int32_t>(mask, 2, 1000, 1 << 30, rng));
      } else {
        data.push_back(
            fts::GenerateUniformColumn<int32_t>(rows, 0, 1 << 30, rng));
      }
    }

    // Column store.
    fts::TableBuilder builder(schema);
    std::vector<fts::ColumnPtr> columns;
    std::vector<const fts::BaseColumn*> raw_columns;
    for (auto& values : data) {
      AlignedVector<int32_t> copy = values;
      columns.push_back(
          std::make_shared<fts::ValueColumn<int32_t>>(std::move(copy)));
      raw_columns.push_back(columns.back().get());
    }
    FTS_CHECK(builder.AddChunk(columns).ok());
    const fts::TablePtr table = builder.Build();

    // Row store with identical content.
    fts::RowStore row_store(schema);
    FTS_CHECK(row_store.AppendColumnsAsRows(raw_columns).ok());

    fts::ScanSpec spec;
    spec.predicates = {{"c0", fts::CompareOp::kEq, fts::Value(5)},
                       {"c1", fts::CompareOp::kEq, fts::Value(2)}};

    auto scanner = fts::TableScanner::Prepare(table, spec);
    FTS_CHECK(scanner.ok());
    const auto row_count = row_store.ScanCount(spec);
    const auto column_count = RunSerial(fts::ExecuteParallelScanCount,
                                        *scanner, {ScanEngine::kSisdNoVec, 0});
    FTS_CHECK(row_count.ok() && column_count.ok());
    FTS_CHECK(*row_count == *column_count);

    const double row_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(row_store.ScanCount(spec).ok());
    });
    const double sisd_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(RunSerial(fts::ExecuteParallelScanCount,
                                       *scanner, {ScanEngine::kSisdNoVec, 0})
                                 .ok());
    });
    const double fused_ms = MedianMillis(reps, [&] {
      fts::DoNotOptimizeAway(
          RunSerial(fts::ExecuteParallelScanCount, *scanner, {fused, 0})
              .ok());
    });
    std::printf("%-14zu %14.3f %16.3f %16.3f\n", payload_columns, row_ms,
                sisd_ms, fused_ms);
  }
  std::printf(
      "\nThe columnar scans are insensitive to payload width; the row "
      "store pays for every byte\nof every row — the paper's motivation "
      "for fast columnar scans.\n");
  return 0;
}
