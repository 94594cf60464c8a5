// Cold-start figure (beyond the paper): what the first query in a fresh
// process pays before it can scan, and how that compares with a steady
// query.
//
// On the paper's 16M-row two-predicate COUNT(*) (1% / 50% matches, 1M-row
// chunks) it times, each on its own:
//
//   first_query   Database::Query in a process that has not yet computed
//                 the table's statistics: they are paid inside this
//                 query.
//   steady_query  median Database::Query once they are cached.
//   statistics    median TableStatistics::Compute over the same table.
//
// The first query must land within a small multiple of steady +
// statistics. Every query's count is checked against the generator's
// ground truth.
//
// Emits one machine-readable line per phase:
//   BENCH {"figure":"fig_cold_start","phase":"statistics","median_ms":...}
//
// Scaling knobs: FTS_BENCH_MAX_ROWS / FTS_BENCH_REPS (bench_util.h).

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "fts/common/string_util.h"
#include "fts/db/database.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/table_statistics.h"

namespace {
using namespace fts::bench;

void Emit(const char* phase, size_t rows, int reps, double ms) {
  std::printf("%-14s%12.2f ms\n", phase, ms);
  BenchLine("fig_cold_start")
      .Field("phase", phase)
      .Field("rows", static_cast<uint64_t>(rows))
      .Field("reps", reps)
      .Field("median_ms", ms)
      .Emit();
}

}  // namespace

int main() {
  PrintTitle("Cold start -- first query vs statistics and a steady query");
  const size_t rows = ScaleRows(std::min(MaxRows(), size_t{16'000'000}));
  if (rows == 0) {
    std::printf("configuration skipped (FTS_BENCH_MAX_ROWS too small)\n");
    return 0;
  }
  const int reps = Reps();

  fts::ScanTableOptions options;
  options.rows = rows;
  options.selectivities = {0.01, 0.5};
  options.seed = 7919;
  options.chunk_size = fts::kDefaultChunkSize;
  const fts::GeneratedScanTable generated = fts::MakeScanTable(options);
  fts::Database db;
  FTS_CHECK(db.RegisterTable("t", generated.table).ok());
  const std::string sql =
      fts::StrFormat("SELECT COUNT(*) FROM t WHERE c0 = %d AND c1 = %d",
                     generated.search_values[0], generated.search_values[1]);
  const uint64_t expected = generated.stage_matches.back();
  const auto query = [&] {
    const auto result = db.Query(sql);
    FTS_CHECK(result.ok());
    FTS_CHECK(result->count == expected);
  };
  std::printf("rows = %zu, chunks = %zu, reps = %d, engine = %s, "
              "matches = %llu\n\n",
              rows, generated.table->chunk_count(), reps,
              fts::ScanEngineToString(fts::Database::DefaultEngine()),
              static_cast<unsigned long long>(expected));

  // Must run first: every later phase warms a process-wide cache.
  fts::Stopwatch stopwatch;
  query();
  Emit("first_query", rows, 1, stopwatch.ElapsedMillis());
  Emit("steady_query", rows, reps, MedianMillis(reps, query));
  Emit("statistics", rows, reps, MedianMillis(reps, [&] {
         const auto stats =
             fts::TableStatistics::Compute(*generated.table);
         fts::DoNotOptimizeAway(stats.row_count());
       }));
  return 0;
}
