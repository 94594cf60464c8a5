#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fts/plan/physical_plan.h"
#include "fts/sql/ast.h"
#include "fts/storage/table.h"

namespace perfbench {

// Operation types of the query mix; latencies are reported per type.
enum class OpType : uint8_t { kCount, kAgg, kProject, kJitCount, kExplain };
inline constexpr int kNumOpTypes = 5;
const char* OpTypeName(OpType op);

// One conjunct over a generated column: `column = lo`, `column < lo`,
// `column >= lo`, or `column BETWEEN lo AND hi`.
struct Pred {
  enum class Cmp : uint8_t { kEq, kLt, kGe, kBetween };
  int column = 0;
  Cmp cmp = Cmp::kEq;
  int64_t lo = 0;
  int64_t hi = 0;

  bool Matches(int32_t v) const {
    switch (cmp) {
      case Cmp::kEq: return v == lo;
      case Cmp::kLt: return v < lo;
      case Cmp::kGe: return v >= lo;
      case Cmp::kBetween: return v >= lo && v <= hi;
    }
    return false;
  }
};

// What a query returns, in a form both the engine result and the scalar
// oracle can produce. NULL aggregates are NaN.
struct Answer {
  uint64_t count = 0;
  std::vector<double> aggregates;
  std::vector<int64_t> cells;  // Row-major projected values.

  friend bool operator==(const Answer& a, const Answer& b);
};

struct BenchQuery {
  OpType op = OpType::kCount;
  std::string sql;
  std::vector<Pred> preds;
  std::vector<fts::AggregateItem> aggregates;  // Columns by name.
  std::vector<int> projection;                 // Column indexes.
  int order_column = -1;                       // Index into `projection`.
  bool order_descending = false;
  Answer expected;
};

// Canonical answer of an engine result for a query of type `op`. Fails
// (returns nullopt) when the result has the wrong shape for the type.
std::optional<Answer> AnswerOf(OpType op, const fts::QueryResult& result);

// A generated table, the queries drawn against it, and per-type draw
// weights (percent; a type with weight 0 never runs).
struct Workload {
  fts::TablePtr table;
  double ingest_ms = 0.0;
  // Worker threads every query runs with (Database::QueryOptions).
  int threads = 0;
  // Closed-loop clients, each on its own thread.
  int clients = 1;
  // queries[0], a COUNT(*), is the first query of a fresh process.
  std::vector<BenchQuery> queries;
  std::array<int, kNumOpTypes> weights{};
};

// The paper's query: SELECT COUNT(*) FROM t WHERE c0 = ? AND c1 = ? over
// 16M int32 rows at 1 % / 50 % selectivity, one client at `threads`.
// Answers come from the generator's stage_matches.
Workload MakePaperCount(uint64_t seed, int threads);

// 2M rows of six int32 columns (plain, dictionary, bit-packed, RLE on a
// clustered column, FoR, delta) in 64K-row chunks, three serial clients, and a
// seeded mix of COUNT / SUM-MIN-AVG / top-100 projection / JIT COUNT /
// EXPLAIN ANALYZE queries. Answers come from a scalar oracle over the
// generated columns.
Workload MakeMixedSql(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
