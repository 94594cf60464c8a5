#ifndef FTS_PLAN_PHYSICAL_PLAN_H_
#define FTS_PLAN_PHYSICAL_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/scan/scan_engine.h"
#include "fts/scan/scan_spec.h"
#include "fts/sql/ast.h"
#include "fts/storage/columnar_result.h"
#include "fts/storage/pos_list.h"
#include "fts/storage/table.h"

namespace fts {

// Result of executing a query.
struct QueryResult {
  std::vector<std::string> column_names;
  // Boxed rows: aggregate outputs. Empty for COUNT(*) and for
  // projections, which are always columnar.
  std::vector<std::vector<Value>> rows;
  // Late-materialized projection: typed column buffers filled by the
  // batch-gather pipeline (fts/scan/projection_gather.h) for every engine.
  // Authoritative when `columnar_valid` is true — `rows` then stays empty
  // and boxed Values are produced on demand at the API/shell boundary
  // (ValueAt).
  ColumnarResult columnar;
  bool columnar_valid = false;
  // The answer of a SELECT COUNT(*) (output kCountStar), whether it was
  // folded by aggregate pushdown or counted from a position list.
  std::optional<uint64_t> count;
  // Rows matched by the scan pipeline (== rows.size() for projections).
  uint64_t matched_rows = 0;
  // Which scan engine actually ran and why it was (or was not) demoted
  // from the requested one — see FallbackPolicy in fts/scan/scan_engine.h.
  ExecutionReport execution_report;
  // Non-empty for EXPLAIN / EXPLAIN ANALYZE: the rendered (annotated)
  // plan. ToString() returns it verbatim in that case.
  std::string explain_text;

  // Output rows regardless of representation.
  size_t RowCountOut() const {
    return columnar_valid ? columnar.row_count() : rows.size();
  }
  // Boxed value at (row, column) regardless of representation. This is the
  // deferred-materialization point: columnar results box exactly the cells
  // a consumer actually reads.
  Value ValueAt(size_t row, size_t column) const {
    return columnar_valid ? columnar.ValueAt(row, column)
                          : rows[row][column];
  }

  // Renders a small result table (examples/debugging).
  std::string ToString(size_t max_rows = 20) const;
};

// Executable plan for the supported query family (Fig. 9: the LQP
// Translator turns logical nodes into executable operators). Linear:
// a scan pipeline over one table followed by an output step.
struct PhysicalPlan {
  TablePtr table;
  std::string table_name;

  // One scan step. A step with multiple predicates runs as a single fused
  // operator (static kernels or JIT); SISD plans carry one step per
  // predicate, each refining the previous step's position list — the
  // left-hand, non-fused plan of Fig. 8.
  struct ScanStep {
    ScanSpec spec;
    ScanEngine engine = ScanEngine::kAvx512Fused512;
    int jit_register_bits = 512;  // Only for engine == kJit.
  };
  std::vector<ScanStep> scan_steps;

  // What to do when a scan step's engine fails at runtime (e.g. the JIT
  // compiler is missing): demote along DegradationLadder() or fail.
  FallbackPolicy fallback = FallbackPolicy::kLadder;

  // Worker threads for every morsel-driven operator of the plan: the scan
  // and refine steps, the unpushed fold and the Project stage's gather
  // (fts/exec/morsel_loop.h). 0 = resolve from FTS_THREADS, defaulting to
  // single-threaded; results are byte-identical for every value.
  int threads = 0;

  // Query lifecycle context (fts/common/query_context.h), mirrored into
  // every scan step's spec by the translator. ExecutePlan checks it
  // between plan steps (and the scan layers check it at every chunk /
  // morsel / rung boundary); null runs the plan without lifecycle checks.
  // Borrowed — must outlive execution.
  QueryContext* context = nullptr;

  // Collect per-scan microarchitectural counters into the report: a PMU
  // read (perf_event_open) per scan and refine morsel when the host
  // exposes one, else the counters stay unavailable. Opt-in (EXPLAIN
  // ANALYZE sets it): each measured morsel costs two ioctls and a read.
  bool collect_counters = false;

  // Result shape. kCountStar (SELECT COUNT(*)) answers in
  // QueryResult::count; kAggregate returns one row of aggregate values;
  // kProject returns the projected rows. Both aggregate shapes fold the
  // same terms: pushed down into the scan when `pushdown_step` is set,
  // else over the refined position lists through the positions sink.
  enum class Output : uint8_t { kCountStar, kAggregate, kProject };
  Output output = Output::kCountStar;
  // Set when the optimizer proved the conjunction contradictory: the plan
  // returns zero rows without scanning.
  bool empty_result = false;
  // Resolved projection column indexes/names (output == kProject).
  std::vector<size_t> projection_indexes;
  std::vector<std::string> projection_names;
  // Aggregate projection (output == kAggregate, or kCountStar with the
  // single item COUNT(*)). kCountStar differs only in its result shape:
  // QueryResult::count and the one column name "count".
  std::vector<AggregateItem> aggregate_items;
  // The aggregate projection's fold terms, deduplicated by (op, column)
  // with AVG lowered to SUM — every term tracks its own match count, so
  // AVG finalizes as sum/count and COUNT(*) is one column-less COUNT
  // term. `agg_bindings[i]` is the term index answering
  // aggregate_items[i].
  std::vector<AggregateSpec> agg_terms;
  std::vector<int> agg_bindings;
  // Aggregate pushdown (set by the translator for single-step plans with
  // at most kMaxAggTerms terms): a copy of the single scan step (or a
  // predicate-less step when the query has no WHERE) whose
  // spec.aggregates are `agg_terms`. When set, the executor folds the
  // terms inside the scan and never materializes the query's position
  // lists.
  std::optional<ScanStep> pushdown_step;
  // ORDER BY / LIMIT for projection outputs.
  std::optional<size_t> order_by_index;
  bool order_descending = false;
  std::optional<uint64_t> limit;

  std::string Explain() const;
};

// Runs the plan as a step loop over the morsel executors: the first step
// scans full chunks; subsequent steps refine the surviving position lists
// tuple-at-a-time, one position-list morsel per chunk.
StatusOr<QueryResult> ExecutePlan(const PhysicalPlan& plan);

// Renders the physical plan annotated with the actuals recorded in
// `result.execution_report`: per-stage rows and wall time, the engine per
// morsel, zone-map pruning, JIT compile/cache status, and — when collected
// — branch-miss/cycle counters with their source labelled. This is the
// body of EXPLAIN ANALYZE output.
std::string RenderExplainAnalyze(const PhysicalPlan& plan,
                                 const QueryResult& result);

}  // namespace fts

#endif  // FTS_PLAN_PHYSICAL_PLAN_H_
