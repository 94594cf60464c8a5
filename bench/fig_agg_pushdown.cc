// Aggregate pushdown: the pushed-down fold (inside the scan: the fused
// kernel loop for plain columns, the positions sink for RLE / FoR / delta /
// 16-bit columns) vs the unpushed plan (scan to position lists, then fold
// them through the same sink), across predicate selectivities and
// aggregated-column encodings.
//
// Reading the rows: for the plain column the arms compare the fused
// kernel fold (masked gathers inside the compare loop) with collecting
// the positions and batch-gathering them afterwards. For the sink
// encodings both arms decode the same survivors with the same decoders,
// so their gap is the cost of materializing the query's position lists.
//
// Every reported value is self-verified against the boxed row-loop oracle
// (testing::ReferenceAggregates over the SISD reference scan), and the
// pushed-down row must be byte-identical across 1/2/4 worker threads.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/db/database.h"
#include "fts/sql/parser.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"
#include "tests/test_util.h"

namespace {
using namespace fts::bench;
using fts::AlignedVector;
using fts::ColumnEncoding;
using fts::ColumnPtr;

constexpr double kSelectivities[] = {0.001, 0.01, 0.05, 0.10, 0.25, 0.50};
// The sink encodings sweep a subset: their oracle boxes every survivor
// (delta reconstructs each from its block start), which dominates the run.
constexpr double kSinkSelectivities[] = {0.01, 0.10, 0.50};

// Aggregated columns besides plain c1: what each row of the table calls
// the column, and how its chunks are encoded.
enum class AggColumn { kPlain, kRle, kFor, kDelta, kInt16 };

const char* AggColumnName(AggColumn column) {
  switch (column) {
    case AggColumn::kPlain: return "plain";
    case AggColumn::kRle: return "rle";
    case AggColumn::kFor: return "for";
    case AggColumn::kDelta: return "delta";
    case AggColumn::kInt16: return "int16";
  }
  return "?";
}

// One chunk of the aggregated column `v`, `len` rows from `first_row`:
// RLE runs of 64 rows, FoR values in a 2^16 frame above 10^6, a random
// walk for delta, uniform int16.
ColumnPtr MakeValueChunk(AggColumn kind, size_t first_row, size_t len,
                         fts::Xoshiro256& rng, int64_t* walk) {
  if (kind == AggColumn::kInt16) {
    AlignedVector<int16_t> values(len);
    for (size_t i = 0; i < len; ++i) {
      values[i] = static_cast<int16_t>(
          static_cast<int64_t>(rng.NextBounded(60001)) - 30000);
    }
    return std::make_shared<fts::ValueColumn<int16_t>>(std::move(values));
  }
  AlignedVector<int32_t> values(len);
  for (size_t i = 0; i < len; ++i) {
    switch (kind) {
      case AggColumn::kRle:
        values[i] = static_cast<int32_t>(((first_row + i) / 64) % 1000);
        break;
      case AggColumn::kFor:
        values[i] = static_cast<int32_t>(1000000 + rng.NextBounded(65536));
        break;
      default:
        *walk += static_cast<int64_t>(rng.NextBounded(9));
        values[i] = static_cast<int32_t>(*walk);
        break;
    }
  }
  switch (kind) {
    case AggColumn::kRle:
      return std::make_shared<fts::RleColumn<int32_t>>(
          fts::RleColumn<int32_t>::FromValues(values));
    case AggColumn::kFor:
      return std::make_shared<fts::ForColumn<int32_t>>(
          *fts::ForColumn<int32_t>::TryFromValues(values));
    default:
      return std::make_shared<fts::DeltaColumn<int32_t>>(
          *fts::DeltaColumn<int32_t>::TryFromValues(values));
  }
}

// The generated table's predicate column c0 beside an aggregated column
// `v` of kind `kind`, chunk for chunk.
fts::TablePtr WithValueColumn(const fts::Table& generated, AggColumn kind) {
  const fts::DataType type = kind == AggColumn::kInt16
                                 ? fts::DataType::kInt16
                                 : fts::DataType::kInt32;
  fts::TableBuilder builder({{"c0", fts::DataType::kInt32}, {"v", type}});
  fts::Xoshiro256 rng(0xA66 + static_cast<uint64_t>(kind));
  int64_t walk = 0;
  size_t first_row = 0;
  for (fts::ChunkId chunk = 0; chunk < generated.chunk_count(); ++chunk) {
    const size_t len = generated.chunk(chunk).row_count();
    FTS_CHECK(builder
                  .AddChunk({generated.chunk(chunk).column_ptr(0),
                             MakeValueChunk(kind, first_row, len, rng, &walk)})
                  .ok());
    first_row += len;
  }
  return builder.Build();
}

// One aggregate result row rendered for comparison.
std::string RenderRow(const std::vector<fts::Value>& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (const fts::Value& value : row) {
    cells.push_back(fts::ValueToString(value));
  }
  return fts::Join(cells, " | ");
}

std::string RenderRow(const fts::QueryResult& result) {
  FTS_CHECK(result.rows.size() == 1);
  return RenderRow(result.rows[0]);
}

// The oracle's row: the WHERE conjunction through the SISD reference scan,
// then a boxed row loop (testing::ReferenceAggregates).
std::string OracleRow(const fts::TablePtr& table, const std::string& sql) {
  const auto statement = fts::ParseSelect(sql);
  FTS_CHECK(statement.ok());
  fts::ScanSpec spec;
  for (const fts::AstPredicate& predicate : statement->predicates) {
    spec.predicates.push_back(
        {predicate.column, predicate.op, predicate.literal});
  }
  const auto row =
      fts::testing::ReferenceAggregates(table, spec, statement->aggregates);
  FTS_CHECK(row.ok());
  return RenderRow(*row);
}

}  // namespace

int main() {
  PrintTitle(
      "Aggregate pushdown -- fold inside the scan vs fold over position "
      "lists, SUM+MIN+COUNT over one predicate");
  const size_t rows = ScaleRows(FullScale() ? 32'000'000 : MaxRows());
  const int reps = Reps();
  std::printf("rows = %zu, reps = %d, query = SELECT SUM(v), MIN(v), "
              "COUNT(*) FROM t WHERE c0 = <v>\n\n",
              rows, reps);

  std::printf("%-8s%-14s%18s%18s%10s\n", "column", "selectivity",
              "unpushed (ms)", "pushdown (ms)", "speedup");
  PrintRule('-', 8 + 14 + 18 + 18 + 10);

  fts::Database db;
  for (const AggColumn kind :
       {AggColumn::kPlain, AggColumn::kRle, AggColumn::kFor,
        AggColumn::kDelta, AggColumn::kInt16}) {
    for (const double selectivity : kSelectivities) {
      if (kind != AggColumn::kPlain &&
          std::find(std::begin(kSinkSelectivities),
                    std::end(kSinkSelectivities),
                    selectivity) == std::end(kSinkSelectivities)) {
        continue;
      }
      fts::ScanTableOptions options;
      options.rows = rows;
      options.selectivities = {selectivity, 0.5};
      options.seed = 0xA66;
      // Multi-chunk so the thread-determinism check schedules real morsels.
      options.chunk_size = rows / 8;
      const fts::GeneratedScanTable generated = fts::MakeScanTable(options);
      const fts::TablePtr table =
          kind == AggColumn::kPlain ? generated.table
                                    : WithValueColumn(*generated.table, kind);
      FTS_CHECK(db.RegisterTable("t", table).ok());
      const std::string sql = fts::StrFormat(
          "SELECT SUM(%s), MIN(%s), COUNT(*) FROM t WHERE c0 = %d",
          kind == AggColumn::kPlain ? "c1" : "v",
          kind == AggColumn::kPlain ? "c1" : "v", generated.search_values[0]);

      fts::Database::QueryOptions unpushed;
      unpushed.aggregate_pushdown = false;
      fts::Database::QueryOptions pushdown;
      pushdown.aggregate_pushdown = true;

      // The boxed row-loop oracle: the ground truth every measured arm
      // must reproduce.
      const std::string expected_row = OracleRow(table, sql);

      const auto folded = db.Query(sql, unpushed);
      FTS_CHECK(folded.ok() && !folded->execution_report.aggregate_pushdown);
      FTS_CHECK(RenderRow(*folded) == expected_row);
      const auto pushed = db.Query(sql, pushdown);
      FTS_CHECK(pushed.ok() && pushed->execution_report.aggregate_pushdown);
      FTS_CHECK(RenderRow(*pushed) == expected_row);

      // Determinism: the pushed-down row is byte-identical across worker
      // thread counts (chunk-order merge of partial accumulators).
      for (const int threads : {1, 2, 4}) {
        fts::Database::QueryOptions threaded = pushdown;
        threaded.threads = threads;
        const auto result = db.Query(sql, threaded);
        FTS_CHECK(result.ok() && RenderRow(*result) == expected_row);
      }

      const double unpushed_ms = MedianMillis(reps, [&] {
        fts::DoNotOptimizeAway(db.Query(sql, unpushed).ok());
      });
      const double pushdown_ms = MedianMillis(reps, [&] {
        fts::DoNotOptimizeAway(db.Query(sql, pushdown).ok());
      });
      const double speedup =
          pushdown_ms > 0.0 ? unpushed_ms / pushdown_ms : 0.0;
      std::printf("%-8s%-14.3f%18.3f%18.3f%9.2fx\n", AggColumnName(kind),
                  selectivity, unpushed_ms, pushdown_ms, speedup);
      BenchLine("fig_agg_pushdown")
          .Field("column", AggColumnName(kind))
          .Field("selectivity", selectivity)
          .Field("rows", static_cast<uint64_t>(rows))
          .Field("unpushed_ms", unpushed_ms)
          .Field("pushdown_ms", pushdown_ms)
          .Field("speedup", speedup)
          .Emit();
      FTS_CHECK(db.DropTable("t").ok());
    }
  }
  std::printf(
      "\nplain: kernel fold vs collect-then-gather fold; rle/for/delta/"
      "int16: the same positions fold on both arms, so the gap is the "
      "cost of materializing the position lists.\n");
  return 0;
}
