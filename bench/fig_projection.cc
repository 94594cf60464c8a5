// Late materialization: SIMD batch-gather projection vs tuple-at-a-time
// value boxing, across predicate selectivities and projection widths.
//
// Only the Project stage is timed. One ExecuteParallelScan per case,
// outside the timed loop, produces the survivor position lists both arms
// materialize. The reference arm is a bench-local boxing loop: every
// surviving cell through Table::GetValue into row vectors, serially (the
// seed repo's materializer). The gather arm is what every Project stage
// runs: ProjectionGatherer + ExecuteParallelGather on the best available
// kernel, into dense typed column buffers, with boxing deferred to the
// result accessors.
//
// Expectation: the gather arm wins big on wide projections (4+ columns)
// once enough rows survive to amortize the per-chunk setup — the
// acceptance bar is >= 2x at >= 10 % selectivity.
//
// Every measured configuration is self-verified: both arms must agree on
// the row count and render identical rows.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_project.h"
#include "fts/plan/physical_plan.h"
#include "fts/storage/data_generator.h"

namespace {
using namespace fts::bench;

constexpr double kSelectivities[] = {0.01, 0.10, 0.50};

// Rows rendered for the cross-arm identity check; the row count is
// compared in full, the rendered prefix guards cell values and order.
constexpr size_t kVerifyRows = 200;

// The Project stage's input: the survivors of `c0 = search_value`.
fts::TableMatches Survivors(const fts::TablePtr& table, int32_t search_value) {
  fts::ScanSpec spec;
  spec.predicates.push_back(
      {"c0", fts::CompareOp::kEq, fts::Value(search_value)});
  const auto scanner = fts::TableScanner::Prepare(table, spec);
  FTS_CHECK(scanner.ok());
  fts::ParallelScanOptions options;
  options.threads = 1;
  auto matches = fts::ExecuteParallelScan(*scanner, options, nullptr);
  FTS_CHECK(matches.ok());
  return std::move(matches).value();
}

// Reference arm: boxes every surviving cell into row vectors.
void BoxRows(const fts::Table& table, const std::vector<size_t>& columns,
             const fts::TableMatches& matches, fts::QueryResult* out) {
  out->rows.clear();
  out->rows.reserve(matches.TotalMatches());
  for (const fts::ChunkMatches& chunk : matches.chunks) {
    for (const uint32_t pos : chunk.positions) {
      std::vector<fts::Value> row;
      row.reserve(columns.size());
      for (const size_t column : columns) {
        row.push_back(
            table.GetValue(column, fts::RowId{chunk.chunk_id, pos}));
      }
      out->rows.push_back(std::move(row));
    }
  }
}

// Gather arm: the engine's Project stage without ORDER BY / LIMIT.
void GatherColumns(const fts::TablePtr& table,
                   const std::vector<size_t>& columns,
                   const fts::TableMatches& matches, int threads,
                   fts::QueryResult* out) {
  auto gatherer = fts::ProjectionGatherer::Prepare(table, columns);
  FTS_CHECK(gatherer.ok());
  fts::ParallelProjectOptions options;
  options.kernel = fts::BestAvailableKernel();
  options.threads = threads;
  fts::GatherStats stats;
  FTS_CHECK(fts::ExecuteParallelGather(*gatherer, matches, out->column_names,
                                       options, &out->columnar, &stats)
                .ok());
  out->columnar_valid = true;
}

void RunCase(const char* label, const fts::TablePtr& table,
             int32_t search_value, int columns, double selectivity,
             size_t rows, int threads, int reps) {
  const fts::TableMatches matches = Survivors(table, search_value);
  std::vector<size_t> indexes;
  std::vector<std::string> names;
  for (int c = 0; c < columns; ++c) {
    indexes.push_back(static_cast<size_t>(c));
    names.push_back(fts::StrFormat("c%d", c));
  }

  fts::QueryResult reference;
  reference.column_names = names;
  const double reference_ms = MedianMillis(
      reps, [&] { BoxRows(*table, indexes, matches, &reference); });
  fts::QueryResult gather;
  gather.column_names = names;
  const double gather_ms = MedianMillis(reps, [&] {
    GatherColumns(table, indexes, matches, threads, &gather);
  });
  FTS_CHECK(reference.RowCountOut() == gather.RowCountOut());
  FTS_CHECK(reference.ToString(kVerifyRows) == gather.ToString(kVerifyRows));

  const double speedup = gather_ms > 0.0 ? reference_ms / gather_ms : 0.0;
  std::printf("%-12s%-8d%-14.2f%18.3f%18.3f%9.2fx\n", label, threads,
              selectivity, reference_ms, gather_ms, speedup);
  BenchLine("fig_projection")
      .Field("case", label)
      .Field("threads", threads)
      .Field("selectivity", selectivity)
      .Field("rows", static_cast<uint64_t>(rows))
      .Field("columns", columns)
      .Field("rows_out", static_cast<uint64_t>(gather.RowCountOut()))
      .Field("reference_ms", reference_ms)
      .Field("gather_ms", gather_ms)
      .Field("speedup", speedup)
      .Emit();
}

}  // namespace

int main() {
  PrintTitle(
      "Late materialization -- Project stage: SIMD batch-gather vs "
      "tuple-at-a-time boxing over one survivor list");
  const size_t rows = ScaleRows(FullScale() ? 32'000'000 : MaxRows());
  const int reps = Reps();
  std::printf("rows = %zu, reps = %d, kernel = %s, survivors of "
              "c0 = <v>, wide = c0..c4\n\n",
              rows, reps,
              fts::FusedKernelKindToString(fts::BestAvailableKernel()));

  std::printf("%-12s%-8s%-14s%18s%18s%10s\n", "case", "threads",
              "selectivity", "reference (ms)", "gather (ms)", "speedup");
  PrintRule('-', 12 + 8 + 14 + 18 + 18 + 10);

  for (const double selectivity : kSelectivities) {
    fts::ScanTableOptions options;
    options.rows = rows;
    // One predicate column and four payload columns every row matches, so
    // the projection width is 5 and the survivor count tracks the
    // predicate's selectivity alone.
    options.selectivities = {selectivity, 1.0, 1.0, 1.0, 1.0};
    options.seed = 0x9A7;
    // Multi-chunk so the morsel-parallel case schedules real work.
    options.chunk_size = rows / 8;
    const fts::GeneratedScanTable plain = fts::MakeScanTable(options);
    const int32_t value = plain.search_values[0];

    // The headline: wide projection, serial and morsel-parallel (the
    // reference arm boxes serially in both).
    RunCase("wide", plain.table, value, 5, selectivity, rows, 1, reps);
    RunCase("wide-mt4", plain.table, value, 5, selectivity, rows, 4, reps);
    {
      // Dictionary-encoded payloads: the gather translates codes to
      // values through the 8-byte-window kernels instead of copying
      // plain cells.
      fts::ScanTableOptions dict_options = options;
      dict_options.dictionary_encode = true;
      const fts::GeneratedScanTable dict = fts::MakeScanTable(dict_options);
      RunCase("wide-dict", dict.table, dict.search_values[0], 5,
              selectivity, rows, 1, reps);
    }
    // Narrow projection: one column, the per-chunk setup's worst case.
    RunCase("narrow", plain.table, value, 1, selectivity, rows, 1, reps);
  }
  std::printf(
      "\nShape check: wide >= 2x at selectivity >= 10%% — batch gathers "
      "replace per-cell Value boxing.\n");
  return 0;
}
