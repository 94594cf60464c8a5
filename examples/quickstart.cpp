// Quickstart: build a table, run multi-predicate scans through every
// engine — from the naive SISD loop to the JIT-compiled AVX-512 Fused
// Table Scan — and show that they agree while the fused engines win.
//
// Usage: quickstart [rows]   (default 4,000,000)

#include <cstdio>
#include <cstdlib>

#include "fts/common/cpu_info.h"
#include "fts/common/stats.h"
#include "fts/common/timer.h"
#include "fts/db/database.h"
#include "fts/jit/jit_cache.h"
#include "fts/storage/data_generator.h"

namespace {

using fts::Database;
using fts::ScanEngine;

void RunWithEngine(const Database& db, const std::string& sql,
                   ScanEngine engine) {
  if (!fts::ScanEngineAvailable(engine)) {
    std::printf("  %-26s  (not available on this CPU)\n",
                fts::ScanEngineToString(engine));
    return;
  }
  Database::QueryOptions options;
  options.engine = engine;

  // Warm-up run. For the JIT engine it queues the operator's compile
  // and runs on the static fused kernel meanwhile; wait for the compile
  // so the timed runs measure the compiled operator.
  auto warmup = db.Query(sql, options);
  if (!warmup.ok()) {
    std::printf("  %-26s  error: %s\n", fts::ScanEngineToString(engine),
                warmup.status().ToString().c_str());
    return;
  }
  fts::GlobalJitCache().WaitForPendingCompiles();

  std::vector<double> millis;
  for (int rep = 0; rep < 5; ++rep) {
    fts::Stopwatch stopwatch;
    auto result = db.Query(sql, options);
    millis.push_back(stopwatch.ElapsedMillis());
    if (!result.ok()) return;
  }
  std::printf("  %-26s  COUNT(*) = %-10llu  median %8.3f ms\n",
              fts::ScanEngineToString(engine),
              static_cast<unsigned long long>(warmup->count.value_or(0)),
              fts::Median(millis));
}

}  // namespace

int main(int argc, char** argv) {
  const size_t rows = (argc > 1) ? static_cast<size_t>(std::atoll(argv[1]))
                                 : 4'000'000;

  std::printf("CPU features: %s\n\n", fts::GetCpuFeatures().ToString().c_str());

  // The paper's running example: two equality predicates; the first
  // matches 1%% of rows, the second 50%% of the remainder.
  fts::ScanTableOptions table_options;
  table_options.rows = rows;
  table_options.selectivities = {0.01, 0.5};
  table_options.seed = 42;
  std::printf("Generating %zu rows ...\n", rows);
  const fts::GeneratedScanTable generated = fts::MakeScanTable(table_options);

  Database db;
  FTS_CHECK(db.RegisterTable("tbl", generated.table).ok());

  const std::string sql = "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
  std::printf("\nQuery: %s\n", sql.c_str());
  std::printf("Expected matches (from generator ground truth): %llu\n\n",
              static_cast<unsigned long long>(generated.stage_matches.back()));

  std::printf("Plan with the Fused Table Scan:\n%s\n",
              db.Explain(sql).value().c_str());

  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kBlockwise, ScanEngine::kScalarFused,
        ScanEngine::kAvx2Fused128, ScanEngine::kAvx512Fused128,
        ScanEngine::kAvx512Fused256, ScanEngine::kAvx512Fused512,
        ScanEngine::kJit}) {
    RunWithEngine(db, sql, engine);
  }

  std::printf("\nProjection query:\n");
  auto rows_result =
      db.Query("SELECT c0, c1 FROM tbl WHERE c0 = 5 AND c1 = 2");
  if (rows_result.ok()) {
    std::printf("%s", rows_result->ToString(5).c_str());
  }
  return 0;
}
