#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "fts/common/macros.h"
#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"

namespace perfbench {
namespace {

using fts::AggregateKind;
using fts::ColumnEncoding;
using fts::Xoshiro256;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// mixed_sql columns: every value is offset + scale * k for k in [0, domain),
// which lets a target selectivity map straight to a literal.
struct MixedColumn {
  const char* name;
  ColumnEncoding encoding;
  int64_t offset;
  int64_t scale;
  int64_t domain;  // Filled for the data-dependent columns at generation.
};

constexpr size_t kPaperRows = 16'000'000;
constexpr size_t kMixedRows = 2'000'000;
constexpr size_t kMixedChunkRows = 64 * 1024;
constexpr int64_t kRleRunRows = 2000;
constexpr int kMixedColumns = 6;
constexpr uint64_t kProjectLimit = 100;

std::array<MixedColumn, kMixedColumns> MixedSchema(size_t rows) {
  const auto n = static_cast<int64_t>(rows);
  return {{
      {"c_plain", ColumnEncoding::kPlain, 0, 1, n},
      {"c_dict", ColumnEncoding::kDictionary, 0, 7, 1000},
      {"c_packed", ColumnEncoding::kBitPacked, 0, 1, 4096},
      {"c_rle", ColumnEncoding::kRle, 0, 1,
       (n + kRleRunRows - 1) / kRleRunRows},
      {"c_for", ColumnEncoding::kFor, 1000000, 1, 65536},
      {"c_delta", ColumnEncoding::kDelta, 0, 1, 0},
  }};
}

// A uniform column of every shape above; c_plain is a permutation so its
// values are unique, and c_rle/c_delta are clustered so zone maps prune.
std::array<std::vector<int32_t>, kMixedColumns> GenerateMixedColumns(
    size_t rows, std::array<MixedColumn, kMixedColumns>* schema,
    Xoshiro256& rng) {
  std::array<std::vector<int32_t>, kMixedColumns> cols;
  for (auto& col : cols) col.resize(rows);
  std::iota(cols[0].begin(), cols[0].end(), 0);
  for (size_t i = rows; i > 1; --i) {
    std::swap(cols[0][i - 1], cols[0][rng.NextBounded(i)]);
  }
  int64_t delta = 0;
  for (size_t i = 0; i < rows; ++i) {
    cols[1][i] = static_cast<int32_t>(7 * rng.NextBounded(1000));
    cols[2][i] = static_cast<int32_t>(rng.NextBounded(4096));
    cols[3][i] = static_cast<int32_t>(static_cast<int64_t>(i) / kRleRunRows);
    cols[4][i] = static_cast<int32_t>(1000000 + rng.NextBounded(65536));
    delta += static_cast<int64_t>(rng.NextBounded(9));
    cols[5][i] = static_cast<int32_t>(delta);
  }
  (*schema)[5].domain = delta + 1;
  return cols;
}

// A conjunct on `column` that keeps about `selectivity` of its domain.
Pred DrawPred(int column, const MixedColumn& col, double selectivity,
              Xoshiro256& rng) {
  const int64_t width = std::clamp<int64_t>(
      std::llround(selectivity * static_cast<double>(col.domain)), 1,
      col.domain);
  const auto value = [&](int64_t k) { return col.offset + col.scale * k; };
  Pred pred;
  pred.column = column;
  switch (rng.NextBounded(width == 1 ? 4 : 3)) {
    case 0:
      pred.cmp = Pred::Cmp::kLt;
      pred.lo = value(width);
      break;
    case 1:
      pred.cmp = Pred::Cmp::kGe;
      pred.lo = value(col.domain - width);
      break;
    case 2: {
      const int64_t k = rng.NextInRange(0, col.domain - width);
      pred.cmp = Pred::Cmp::kBetween;
      pred.lo = value(k);
      pred.hi = value(k + width - 1);
      break;
    }
    default:
      pred.cmp = Pred::Cmp::kEq;
      pred.lo = value(rng.NextInRange(0, col.domain - 1));
      break;
  }
  return pred;
}

// Conjuncts of query `i` in a pool of `n`, laid out by position so the
// pool's cost mix is the same for every seed; the seed picks only each
// conjunct's form (=, <, >=, BETWEEN) and where its range lies. The first
// conjunct is on allowed[i % |allowed|] and keeps a share of rows on a log
// grid over 0.01-50 %. The query has min_preds..max_preds conjuncts; the
// others, on the next columns of `allowed`, keep 20-90 % each so
// conjunctions stay non-empty often enough to exercise every stage.
std::vector<Pred> StratifiedPreds(
    size_t i, size_t n, size_t min_preds, size_t max_preds,
    const std::vector<int>& allowed,
    const std::array<MixedColumn, kMixedColumns>& schema, Xoshiro256& rng) {
  const size_t columns = allowed.size();
  const size_t count =
      min_preds + (i / columns) % (max_preds - min_preds + 1);
  std::vector<Pred> preds;
  for (size_t k = 0; k < count; ++k) {
    const int column = allowed[(i + k) % columns];
    const double share =
        k == 0 ? 1e-4 * std::pow(5000.0, (static_cast<double>(i) + 0.5) /
                                             static_cast<double>(n))
               : 0.2 + 0.7 * std::fmod(0.618034 * static_cast<double>(i + k),
                                       1.0);
    preds.push_back(
        DrawPred(column, schema[static_cast<size_t>(column)], share, rng));
  }
  return preds;
}

std::string WhereSql(const std::vector<Pred>& preds,
                     const std::array<MixedColumn, kMixedColumns>& schema) {
  std::string sql;
  for (const Pred& pred : preds) {
    sql += sql.empty() ? " WHERE " : " AND ";
    const char* name = schema[static_cast<size_t>(pred.column)].name;
    const auto lo = static_cast<long long>(pred.lo);
    switch (pred.cmp) {
      case Pred::Cmp::kEq:
        sql += fts::StrFormat("%s = %lld", name, lo);
        break;
      case Pred::Cmp::kLt:
        sql += fts::StrFormat("%s < %lld", name, lo);
        break;
      case Pred::Cmp::kGe:
        sql += fts::StrFormat("%s >= %lld", name, lo);
        break;
      case Pred::Cmp::kBetween:
        sql += fts::StrFormat("%s BETWEEN %lld AND %lld", name, lo,
                              static_cast<long long>(pred.hi));
        break;
    }
  }
  return sql;
}

// Scalar reference answer, straight from the generated columns.
Answer Oracle(const BenchQuery& query,
              const std::array<std::vector<int32_t>, kMixedColumns>& cols,
              const std::array<MixedColumn, kMixedColumns>& schema) {
  const size_t rows = cols[0].size();
  std::vector<uint32_t> matches;
  for (size_t i = 0; i < rows; ++i) {
    bool keep = true;
    for (const Pred& pred : query.preds) {
      if (!pred.Matches(cols[static_cast<size_t>(pred.column)][i])) {
        keep = false;
        break;
      }
    }
    if (keep) matches.push_back(static_cast<uint32_t>(i));
  }
  Answer answer;
  switch (query.op) {
    case OpType::kCount:
    case OpType::kJitCount:
    case OpType::kExplain:
      answer.count = matches.size();
      break;
    case OpType::kAgg:
      for (const fts::AggregateItem& item : query.aggregates) {
        const auto it = std::find_if(
            schema.begin(), schema.end(),
            [&](const MixedColumn& c) { return item.column == c.name; });
        const std::vector<int32_t>& col =
            cols[static_cast<size_t>(it - schema.begin())];
        int64_t sum = 0;
        int32_t min = std::numeric_limits<int32_t>::max();
        for (const uint32_t row : matches) {
          sum += col[row];
          min = std::min(min, col[row]);
        }
        const double null = std::numeric_limits<double>::quiet_NaN();
        const double n = static_cast<double>(matches.size());
        switch (item.kind) {
          case AggregateKind::kSum:
            answer.aggregates.push_back(static_cast<double>(sum));
            break;
          case AggregateKind::kMin:
            answer.aggregates.push_back(matches.empty() ? null : min);
            break;
          default:
            answer.aggregates.push_back(
                matches.empty() ? null : static_cast<double>(sum) / n);
            break;
        }
      }
      break;
    case OpType::kProject: {
      const std::vector<int32_t>& key = cols[static_cast<size_t>(
          query.projection[static_cast<size_t>(query.order_column)])];
      // Ties keep ascending row order, like the engine's stable top-K.
      std::stable_sort(matches.begin(), matches.end(),
                       [&](uint32_t a, uint32_t b) {
                         return query.order_descending ? key[a] > key[b]
                                                       : key[a] < key[b];
                       });
      matches.resize(std::min<size_t>(matches.size(), kProjectLimit));
      answer.count = matches.size();
      for (const uint32_t row : matches) {
        for (const int column : query.projection) {
          answer.cells.push_back(cols[static_cast<size_t>(column)][row]);
        }
      }
      break;
    }
  }
  return answer;
}

}  // namespace

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kCount: return "count";
    case OpType::kAgg: return "agg";
    case OpType::kProject: return "project";
    case OpType::kJitCount: return "jit_count";
    case OpType::kExplain: return "explain";
  }
  return "?";
}

bool operator==(const Answer& a, const Answer& b) {
  if (a.count != b.count || a.cells != b.cells ||
      a.aggregates.size() != b.aggregates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    const double x = a.aggregates[i];
    const double y = b.aggregates[i];
    if (std::isnan(x) || std::isnan(y)) {
      if (std::isnan(x) != std::isnan(y)) return false;
    } else if (std::abs(x - y) > 1e-9 * std::max(1.0, std::abs(y))) {
      return false;
    }
  }
  return true;
}

std::optional<Answer> AnswerOf(OpType op, const fts::QueryResult& result) {
  Answer answer;
  switch (op) {
    case OpType::kCount:
    case OpType::kJitCount:
    case OpType::kExplain:
      if (!result.count.has_value()) return std::nullopt;
      if (op == OpType::kExplain && result.explain_text.empty()) {
        return std::nullopt;
      }
      answer.count = *result.count;
      break;
    case OpType::kAgg:
      if (result.rows.size() != 1) return std::nullopt;
      for (const fts::Value& value : result.rows[0]) {
        answer.aggregates.push_back(
            fts::IsNull(value) ? std::numeric_limits<double>::quiet_NaN()
                               : fts::ValueAs<double>(value));
      }
      break;
    case OpType::kProject:
      answer.count = result.RowCountOut();
      for (size_t r = 0; r < answer.count; ++r) {
        for (size_t c = 0; c < result.column_names.size(); ++c) {
          answer.cells.push_back(fts::ValueAs<int64_t>(result.ValueAt(r, c)));
        }
      }
      break;
  }
  return answer;
}

Workload MakePaperCount(uint64_t seed, int threads) {
  Workload workload;
  workload.threads = threads;
  workload.clients = 1;
  workload.weights = {100, 0, 0, 0, 0};

  fts::ScanTableOptions options;
  options.rows = kPaperRows;
  options.selectivities = {0.01, 0.5};
  options.seed = seed;
  options.chunk_size = fts::kDefaultChunkSize;
  const auto start = std::chrono::steady_clock::now();
  const fts::GeneratedScanTable generated = fts::MakeScanTable(options);
  workload.ingest_ms = MillisSince(start);
  workload.table = generated.table;

  BenchQuery query;
  query.op = OpType::kCount;
  query.sql = fts::StrFormat("SELECT COUNT(*) FROM t WHERE c0 = %d AND c1 = %d",
                             generated.search_values[0],
                             generated.search_values[1]);
  query.expected.count = generated.stage_matches.back();
  workload.queries.push_back(std::move(query));
  return workload;
}

Workload MakeMixedSql(uint64_t seed) {
  constexpr size_t rows = kMixedRows;
  Workload workload;
  workload.threads = 0;  // Database default: FTS_THREADS, else serial.
  workload.clients = 3;
  workload.weights = {30, 25, 20, 20, 5};

  Xoshiro256 rng(seed);
  std::array<MixedColumn, kMixedColumns> schema = MixedSchema(rows);
  const std::array<std::vector<int32_t>, kMixedColumns> cols =
      GenerateMixedColumns(rows, &schema, rng);

  // Ingest through the row-wise builder, which applies the encodings.
  std::vector<fts::ColumnDefinition> definitions;
  for (const MixedColumn& col : schema) {
    definitions.push_back({col.name, fts::DataType::kInt32});
  }
  const auto start = std::chrono::steady_clock::now();
  fts::TableBuilder builder(definitions, kMixedChunkRows);
  for (size_t c = 0; c < schema.size(); ++c) {
    if (schema[c].encoding != ColumnEncoding::kPlain) {
      builder.SetEncoding(c, schema[c].encoding);
    }
  }
  std::vector<fts::Value> row(kMixedColumns);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < kMixedColumns; ++c) row[c] = cols[c][i];
    FTS_CHECK(builder.AppendRow(row).ok());
  }
  workload.table = builder.Build();
  workload.ingest_ms = MillisSince(start);

  const std::vector<int> all_columns = {0, 1, 2, 3, 4, 5};
  // Aggregates skip c_delta: folding it takes 50-800 ms, not 1-7 ms, and
  // would turn the mix into a delta-decode benchmark (see README.md).
  const std::vector<int> agg_columns = {0, 1, 2, 3, 4};
  // JIT shapes use the kernel-scannable encodings, so every chunk runs
  // the compiled chain and the few signatures compile during warm-up.
  const std::vector<int> jit_columns = {0, 1, 2, 4};
  // Finishes `query`: its SQL text, then the oracle's answer.
  const auto add = [&](BenchQuery query, const std::string& select,
                       const std::string& suffix = "") {
    query.sql = select + " FROM t" + WhereSql(query.preds, schema) + suffix;
    query.expected = Oracle(query, cols, schema);
    workload.queries.push_back(std::move(query));
  };
  constexpr size_t kCountPool = 48, kAggPool = 48, kProjectPool = 36;
  constexpr size_t kJitPool = 6, kExplainPool = 12;
  for (size_t i = 0; i < kCountPool; ++i) {
    BenchQuery query;
    query.op = OpType::kCount;
    query.preds =
        StratifiedPreds(i, kCountPool, 2, 4, all_columns, schema, rng);
    add(std::move(query), "SELECT COUNT(*)");
  }
  constexpr AggregateKind kAggKinds[] = {AggregateKind::kSum,
                                         AggregateKind::kMin,
                                         AggregateKind::kAvg};
  for (size_t i = 0; i < kAggPool; ++i) {
    BenchQuery query;
    query.op = OpType::kAgg;
    query.preds = StratifiedPreds(i, kAggPool, 1, 3, all_columns, schema, rng);
    std::string select;
    const size_t terms = 1 + (i * 3 / kAggPool);
    for (size_t t = 0; t < terms; ++t) {
      fts::AggregateItem item;
      item.kind = kAggKinds[(i + t) % 3];
      item.column =
          schema[static_cast<size_t>(agg_columns[(i + t) % agg_columns.size()])]
              .name;
      select += (select.empty() ? "SELECT " : ", ") + item.ToString();
      query.aggregates.push_back(std::move(item));
    }
    add(std::move(query), select);
  }
  for (size_t i = 0; i < kProjectPool; ++i) {
    BenchQuery query;
    query.op = OpType::kProject;
    query.preds =
        StratifiedPreds(i, kProjectPool, 1, 3, all_columns, schema, rng);
    const size_t width = 2 + (i * 3 / kProjectPool);
    for (size_t t = 0; t < width; ++t) {
      query.projection.push_back(all_columns[(i + 2 + t) % all_columns.size()]);
    }
    query.order_column = static_cast<int>(i % width);
    query.order_descending = (i / 2) % 2 == 1;
    std::string select;
    for (const int column : query.projection) {
      select += (select.empty() ? "SELECT " : ", ") +
                std::string(schema[static_cast<size_t>(column)].name);
    }
    const std::string order = fts::StrFormat(
        " ORDER BY %s%s LIMIT %llu",
        schema[static_cast<size_t>(
                   query.projection[static_cast<size_t>(query.order_column)])]
            .name,
        query.order_descending ? " DESC" : "",
        static_cast<unsigned long long>(kProjectLimit));
    add(std::move(query), select, order);
  }
  for (size_t i = 0; i < kJitPool; ++i) {
    BenchQuery query;
    query.op = OpType::kJitCount;
    query.preds = StratifiedPreds(i, kJitPool, 2, 3, jit_columns, schema, rng);
    add(std::move(query), "SELECT COUNT(*)");
  }
  // EXPLAIN ANALYZE shapes all scan about a quarter of the table (25 % of
  // the clustered c_rle, so zone maps prune the rest, then one more column
  // at 50 %) and so cost about the same. As the slowest 5 % of the mix they
  // then hold query_ms.p99 inside one cluster instead of on the gap
  // between cheap and costly shapes.
  for (size_t i = 0; i < kExplainPool; ++i) {
    BenchQuery query;
    query.op = OpType::kExplain;
    const int second = jit_columns[1 + i % 3];
    query.preds = {
        DrawPred(3, schema[3], 0.25, rng),
        DrawPred(second, schema[static_cast<size_t>(second)], 0.5, rng)};
    add(std::move(query), "EXPLAIN ANALYZE SELECT COUNT(*)");
  }
  return workload;
}

}  // namespace perfbench
