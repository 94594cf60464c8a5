// TPC-H Q6-style scan (the paper names Q6 as a motivating multi-predicate
// query): range predicates over lineitem's shipdate, discount, and
// quantity. Demonstrates BETWEEN desugaring, predicate reordering by the
// optimizer, and dictionary-encoded columns feeding the fused scan.
//
//   SELECT COUNT(*) FROM lineitem
//   WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
//     AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
//
// Dates are stored as int32 days-since-epoch; discounts as int32
// hundredths (both faithful to "fixed-size via encoding", Section II
// assumption 3).
//
// Usage: tpch_q6_like [rows]   (default 2,000,000)

#include <cstdio>
#include <cstdlib>

#include "fts/common/random.h"
#include "fts/common/stats.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/db/database.h"
#include "fts/jit/jit_cache.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {

using fts::AlignedVector;
using fts::Database;
using fts::ScanEngine;

constexpr int32_t kDate19940101 = 8766;   // Days since 1970-01-01.
constexpr int32_t kDate19950101 = 9131;

fts::TablePtr BuildLineitem(size_t rows, uint64_t seed) {
  fts::Xoshiro256 rng(seed);
  // shipdate uniform over 1992-01-01 .. 1998-12-31 (2557 days).
  AlignedVector<int32_t> shipdate =
      fts::GenerateUniformColumn<int32_t>(rows, 8035, 10592, rng);
  // discount 0.00 .. 0.10 in hundredths.
  AlignedVector<int32_t> discount =
      fts::GenerateUniformColumn<int32_t>(rows, 0, 10, rng);
  // quantity 1 .. 50.
  AlignedVector<int32_t> quantity =
      fts::GenerateUniformColumn<int32_t>(rows, 1, 50, rng);
  // extendedprice (projected in real Q6; here it exercises projection).
  AlignedVector<int32_t> price =
      fts::GenerateUniformColumn<int32_t>(rows, 90000, 10500000, rng);

  fts::TableBuilder builder({{"l_shipdate", fts::DataType::kInt32},
                             {"l_discount", fts::DataType::kInt32},
                             {"l_quantity", fts::DataType::kInt32},
                             {"l_extendedprice", fts::DataType::kInt32}});
  std::vector<fts::ColumnPtr> columns = {
      std::make_shared<fts::ValueColumn<int32_t>>(std::move(shipdate)),
      std::make_shared<fts::ValueColumn<int32_t>>(std::move(discount)),
      std::make_shared<fts::ValueColumn<int32_t>>(std::move(quantity)),
      std::make_shared<fts::ValueColumn<int32_t>>(std::move(price))};
  FTS_CHECK(builder.AddChunk(std::move(columns)).ok());
  return builder.Build();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t rows = (argc > 1) ? static_cast<size_t>(std::atoll(argv[1]))
                                 : 2'000'000;
  std::printf("Building lineitem with %zu rows ...\n", rows);

  Database db;
  FTS_CHECK(db.RegisterTable("lineitem", BuildLineitem(rows, 7)).ok());

  const std::string sql = fts::StrFormat(
      "SELECT COUNT(*) FROM lineitem "
      "WHERE l_shipdate >= %d AND l_shipdate < %d "
      "AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
      kDate19940101, kDate19950101);

  std::printf("\nQuery (Q6 analogue): %s\n\n", sql.c_str());
  std::printf("%s\n", db.Explain(sql).value().c_str());

  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kAvx2Fused128, ScanEngine::kAvx512Fused512,
        ScanEngine::kJit}) {
    if (!fts::ScanEngineAvailable(engine)) continue;
    Database::QueryOptions options;
    options.engine = engine;
    auto warmup = db.Query(sql, options);
    if (!warmup.ok()) {
      std::printf("%-26s error: %s\n", fts::ScanEngineToString(engine),
                  warmup.status().ToString().c_str());
      continue;
    }
    // A JIT warm-up queues the compile; time the compiled operator.
    fts::GlobalJitCache().WaitForPendingCompiles();
    std::vector<double> millis;
    for (int rep = 0; rep < 7; ++rep) {
      fts::Stopwatch stopwatch;
      auto result = db.Query(sql, options);
      millis.push_back(stopwatch.ElapsedMillis());
      FTS_CHECK(result.ok());
      FTS_CHECK(result->count == warmup->count);
    }
    std::printf("%-26s COUNT(*) = %-9llu median %8.3f ms\n",
                fts::ScanEngineToString(engine),
                static_cast<unsigned long long>(*warmup->count),
                fts::Median(millis));
  }

  // Real Q6 computes SUM(l_extendedprice * l_discount); this engine
  // aggregates a stored column, so the example reports the revenue base.
  const std::string sum_sql = fts::StrFormat(
      "SELECT SUM(l_extendedprice), AVG(l_discount), COUNT(*) "
      "FROM lineitem WHERE l_shipdate >= %d AND l_shipdate < %d "
      "AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
      kDate19940101, kDate19950101);
  auto sum_result = db.Query(sum_sql);
  if (sum_result.ok()) {
    std::printf("\nAggregate query:\n  %s\n%s", sum_sql.c_str(),
                sum_result->ToString().c_str());
  }
  return 0;
}
