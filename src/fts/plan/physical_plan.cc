#include "fts/plan/physical_plan.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "fts/common/query_context.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/exec/parallel_project.h"
#include "fts/exec/parallel_scan.h"
#include "fts/exec/task_pool.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"
#include "fts/scan/positions_fold.h"
#include "fts/scan/table_scan.h"

namespace fts {
namespace {

// The plan's worker count, shared by every morsel loop of the plan:
// PhysicalPlan::threads, else FTS_THREADS; unset runs morsels inline on
// the calling thread.
int ResolvePlanThreads(const PhysicalPlan& plan) {
  return plan.threads != 0 ? plan.threads : TaskPool::ThreadCountFromEnv(1);
}

// The morsel-executor options of one scan step on the plan's `threads`
// workers; the step's scanner supplies the query context. Static engines
// carry no register width (EngineChoice contract).
ParallelScanOptions StepOptions(const PhysicalPlan& plan,
                                const PhysicalPlan::ScanStep& step,
                                int threads) {
  ParallelScanOptions options;
  options.requested = {
      step.engine, step.engine == ScanEngine::kJit ? step.jit_register_bits
                                                   : 0};
  options.fallback = plan.fallback;
  options.threads = threads;
  options.collect_counters = plan.collect_counters;
  return options;
}

// A refine predicate's whole-table selectivity under the model's zone-map
// estimates: what fraction of rows reaching its step survive it
// (independence assumption).
double EstSelectivity(const TableScanner& scanner) {
  uint64_t rows = 0;
  for (const TableScanner::ChunkPlan& plan : scanner.chunk_plans()) {
    rows += plan.row_count;
  }
  return rows > 0 ? scanner.est_rows() / static_cast<double>(rows) : 1.0;
}

// Turns the merged accumulators into the aggregate projection's output
// row and column names on `result` — the one finalizer of every aggregate
// path: typed SUM in int64/uint64/double (integer sums exact mod 2^64),
// MIN/MAX in the column's own type, AVG = sum / count in double.
// MIN/MAX/AVG over zero matched rows yield NULL; SUM stays a typed 0 and
// COUNT(*) a plain 0.
Status FinalizeAggregates(const PhysicalPlan& plan,
                          const TableScanner::AggResult& agg,
                          QueryResult* result) {
  const Table& table = *plan.table;
  const std::vector<AggregateItem>& items = plan.aggregate_items;
  const std::vector<int>& bindings = plan.agg_bindings;
  if (bindings.size() != items.size()) {
    return Status::Internal("aggregate pushdown bindings out of sync");
  }
  std::vector<Value> results;
  results.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const AggregateItem& item = items[i];
    const size_t term = static_cast<size_t>(bindings[i]);
    if (term >= agg.accumulators.size()) {
      return Status::Internal("aggregate pushdown bindings out of sync");
    }
    const AggAccumulator& acc = agg.accumulators[term];
    if (item.kind == AggregateKind::kCountStar) {
      results.emplace_back(static_cast<uint64_t>(acc.count));
      continue;
    }
    FTS_ASSIGN_OR_RETURN(const size_t column_index,
                         table.ColumnIndex(item.column));
    const DataType type = table.column_definition(column_index).type;
    DispatchDataType(type, [&](auto tag) {
      using T = decltype(tag);
      constexpr bool kFloat = std::is_floating_point_v<T>;
      constexpr bool kSigned = std::is_signed_v<T> && !kFloat;
      switch (item.kind) {
        case AggregateKind::kSum:
          if constexpr (kFloat) {
            results.emplace_back(acc.sum_double);
          } else if constexpr (kSigned) {
            results.emplace_back(static_cast<int64_t>(acc.sum_bits));
          } else {
            results.emplace_back(static_cast<uint64_t>(acc.sum_bits));
          }
          break;
        case AggregateKind::kMin:
          if (acc.count == 0) {
            results.push_back(NullValue());
          } else if constexpr (kFloat) {
            results.emplace_back(static_cast<T>(acc.min_d));
          } else if constexpr (kSigned) {
            results.emplace_back(static_cast<T>(acc.min_i));
          } else {
            results.emplace_back(static_cast<T>(acc.min_u));
          }
          break;
        case AggregateKind::kMax:
          if (acc.count == 0) {
            results.push_back(NullValue());
          } else if constexpr (kFloat) {
            results.emplace_back(static_cast<T>(acc.max_d));
          } else if constexpr (kSigned) {
            results.emplace_back(static_cast<T>(acc.max_i));
          } else {
            results.emplace_back(static_cast<T>(acc.max_u));
          }
          break;
        case AggregateKind::kAvg: {
          if (acc.count == 0) {
            results.push_back(NullValue());
            break;
          }
          double sum;
          if constexpr (kFloat) {
            sum = acc.sum_double;
          } else if constexpr (kSigned) {
            sum = static_cast<double>(static_cast<int64_t>(acc.sum_bits));
          } else {
            sum = static_cast<double>(acc.sum_bits);
          }
          results.emplace_back(sum / static_cast<double>(acc.count));
          break;
        }
        case AggregateKind::kCountStar:
          break;  // Handled above.
      }
    });
  }
  result->rows.push_back(std::move(results));
  for (const AggregateItem& item : items) {
    result->column_names.push_back(item.ToString());
  }
  return Status::Ok();
}

// Operator name used by both Explain() and the ANALYZE renderer.
const char* StepOpName(const PhysicalPlan::ScanStep& step) {
  return (step.spec.predicates.size() > 1 || step.engine == ScanEngine::kJit)
             ? "FusedTableScan"
             : "TableScan";
}

// Surfaces a query's hardware counter reads in the metrics registry. The
// morsel loop has already labelled their coverage; without a PMU (or
// without collection) the counters stay unavailable and nothing is added.
void RecordCounterMetrics(const ExecutionReport& report) {
  const ScanCounters& sc = report.counters;
  if (sc.source != CounterSource::kHardware) return;
  obs::Metrics().scan_cycles_total->Add(sc.cycles);
  obs::Metrics().scan_instructions_total->Add(sc.instructions);
  obs::Metrics().scan_branches_total->Add(sc.branches);
  obs::Metrics().scan_branch_misses_total->Add(sc.branch_misses);
}

// Copies the hardware delta a stage added on top of `cycles_before` /
// `misses_before` into the stage's own counter fields.
void FillStageCounters(const ExecutionReport& report, uint64_t cycles_before,
                       uint64_t misses_before, StageReport* stage) {
  const ScanCounters& sc = report.counters;
  if (sc.source != CounterSource::kHardware) return;
  if (sc.cycles == cycles_before && sc.branch_misses == misses_before) return;
  stage->counters_valid = true;
  stage->cycles = sc.cycles - cycles_before;
  stage->branch_misses = sc.branch_misses - misses_before;
}

// The pushed-down aggregate path: one pass folds every term inside the
// scan (kernel loop or positions sink per chunk), the per-chunk partials
// merge in chunk order, and the accumulators finalize straight into the
// output row (or into QueryResult::count for COUNT(*)). The query's
// position lists are never materialized.
StatusOr<QueryResult> ExecuteAggregatePushdown(const PhysicalPlan& plan,
                                               int threads) {
  QueryResult result;
  const PhysicalPlan::ScanStep& step = *plan.pushdown_step;
  ExecutionReport& report = result.execution_report;
  report.aggregate_pushdown = true;
  Stopwatch timer;
  FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                       TableScanner::Prepare(plan.table, step.spec));
  const StatusOr<TableScanner::AggResult> agg = ExecuteParallelScanAggregate(
      scanner, StepOptions(plan, step, threads), &report);
  const double millis = timer.ElapsedMillis();
  FTS_RETURN_IF_ERROR(agg.status());
  RecordCounterMetrics(report);
  report.rows_matched = agg->matched;
  report.rows_folded = agg->matched;
  report.scan_millis = millis;
  if (!plan.scan_steps.empty()) {
    StageReport stage{
        StrFormat("%s [%s]", StepOpName(plan.scan_steps[0]),
                  report.executed.ToString().c_str()),
        report.rows_scanned, agg->matched, millis};
    stage.has_estimate = report.model_active;
    stage.est_rows_out = report.est_rows;
    FillStageCounters(report, 0, 0, &stage);
    report.stages.push_back(std::move(stage));
  }
  Stopwatch finalize_timer;
  if (plan.output == PhysicalPlan::Output::kCountStar) {
    result.count = agg->matched;
    result.column_names = {"count"};
  } else {
    FTS_RETURN_IF_ERROR(FinalizeAggregates(plan, *agg, &result));
  }
  result.matched_rows = agg->matched;
  report.stages.push_back(StageReport{"Aggregate [pushdown]", agg->matched,
                                      1, finalize_timer.ElapsedMillis()});
  return result;
}

// ---- Late-materialization projection (DESIGN.md §16) ----

// Unboxes one gathered column into double sort keys (the ValueAs<double>
// domain).
std::vector<double> KeyDoubles(const ColumnarResult& columnar, size_t key) {
  std::vector<double> keys(columnar.row_count());
  DispatchDataType(columnar.column_type(key), [&](auto tag) {
    using T = decltype(tag);
    const T* data = columnar.TypedData<T>(key);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<double>(data[i]);
    }
  });
  return keys;
}

// Comparator over (key, original index): the index tiebreak reproduces
// stable_sort order exactly, which keeps every engine/thread-count
// combination byte-identical and makes partial selection legal.
struct KeyOrder {
  const std::vector<double>& keys;
  bool descending;
  bool operator()(uint64_t a, uint64_t b) const {
    const double lhs = keys[a];
    const double rhs = keys[b];
    if (lhs != rhs) return descending ? lhs > rhs : lhs < rhs;
    return a < b;
  }
};

// ORDER BY + LIMIT k < matches: top-K partial selection. Gathers ONLY the
// key column for all n survivors, partial-selects k winners, then gathers
// the remaining cells for just those k rows — n + k*width cells instead
// of the full n*width materialize-then-sort-then-truncate.
Status ProjectTopK(const PhysicalPlan& plan, const TableMatches& matches,
                   const ProjectionGatherer& gatherer,
                   const ParallelProjectOptions& options,
                   QueryResult* result, GatherStats* stats) {
  const size_t key_column = *plan.order_by_index;
  const size_t k = static_cast<size_t>(*plan.limit);

  // Key pre-gather through a single-column gatherer (same kernels, same
  // morsel fan-out, same cancellation points).
  FTS_ASSIGN_OR_RETURN(
      ProjectionGatherer key_gatherer,
      ProjectionGatherer::Prepare(
          plan.table, {plan.projection_indexes[key_column]}));
  ColumnarResult key_result;
  FTS_RETURN_IF_ERROR(ExecuteParallelGather(
      key_gatherer, matches, {plan.projection_names[key_column]}, options,
      &key_result, stats));
  const std::vector<double> keys = KeyDoubles(key_result, 0);

  std::vector<uint64_t> ranks(keys.size());
  std::iota(ranks.begin(), ranks.end(), uint64_t{0});
  std::partial_sort(ranks.begin(), ranks.begin() + k, ranks.end(),
                    KeyOrder{keys, plan.order_descending});
  ranks.resize(k);

  // The winners in ascending global order: the compressed gathers (RLE
  // runs, delta blocks) require ascending positions within a chunk.
  std::vector<uint64_t> ascending(ranks);
  std::sort(ascending.begin(), ascending.end());

  // Slice the ascending winners back into per-chunk position lists.
  TableMatches selected;
  selected.chunks.reserve(matches.chunks.size());
  size_t cursor = 0;
  uint64_t base = 0;
  for (const ChunkMatches& chunk : matches.chunks) {
    ChunkMatches keep;
    keep.chunk_id = chunk.chunk_id;
    const uint64_t end = base + chunk.positions.size();
    while (cursor < ascending.size() && ascending[cursor] < end) {
      keep.positions.push_back(
          chunk.positions[static_cast<size_t>(ascending[cursor] - base)]);
      ++cursor;
    }
    selected.chunks.push_back(std::move(keep));
    base = end;
  }

  // Gather the k winners (ascending order), then permute to rank order.
  FTS_RETURN_IF_ERROR(ExecuteParallelGather(gatherer, selected,
                                            plan.projection_names, options,
                                            &result->columnar, stats));
  std::vector<uint32_t> perm(k);
  for (size_t r = 0; r < k; ++r) {
    perm[r] = static_cast<uint32_t>(
        std::lower_bound(ascending.begin(), ascending.end(), ranks[r]) -
        ascending.begin());
  }
  result->columnar.ApplyPermutation(perm);
  return Status::Ok();
}

// The projection pipeline for every engine: per-chunk batch-gather into
// typed column buffers with the kernel matched to the scan's executed
// engine, ORDER BY as a gathered-key permutation, LIMIT as truncation or
// top-K selection. Boxing is deferred to QueryResult::ValueAt.
Status ProjectColumnar(const PhysicalPlan& plan, const TableMatches& matches,
                       int threads, QueryResult* result) {
  FTS_ASSIGN_OR_RETURN(
      ProjectionGatherer gatherer,
      ProjectionGatherer::Prepare(plan.table, plan.projection_indexes));

  const FusedKernelKind kind =
      GatherKernelFor(result->execution_report.executed.engine);
  ParallelProjectOptions options;
  options.kernel = kind;
  options.threads = threads;
  options.context = plan.context;

  GatherStats stats;
  const bool top_k = plan.order_by_index.has_value() &&
                     plan.limit.has_value() &&
                     *plan.limit < result->matched_rows;
  if (top_k) {
    FTS_RETURN_IF_ERROR(
        ProjectTopK(plan, matches, gatherer, options, result, &stats));
  } else {
    FTS_RETURN_IF_ERROR(ExecuteParallelGather(gatherer, matches,
                                              plan.projection_names, options,
                                              &result->columnar, &stats));
    if (plan.order_by_index.has_value()) {
      const std::vector<double> keys =
          KeyDoubles(result->columnar, *plan.order_by_index);
      std::vector<uint64_t> order(keys.size());
      std::iota(order.begin(), order.end(), uint64_t{0});
      std::sort(order.begin(), order.end(),
                KeyOrder{keys, plan.order_descending});
      std::vector<uint32_t> perm(order.begin(), order.end());
      result->columnar.ApplyPermutation(perm);
    }
    if (plan.limit.has_value()) {
      result->columnar.TruncateRows(static_cast<size_t>(*plan.limit));
    }
  }
  result->columnar_valid = true;

  ExecutionReport& report = result->execution_report;
  report.gather_engine = FusedKernelKindToString(kind);
  for (size_t e = 0; e < 6; ++e) {
    report.gather_rows[e] = stats.rows_by_encoding[e];
  }
  report.gather_kernel_rows = stats.kernel_rows;
  report.gather_typed_rows = stats.typed_rows;
  report.gather_delta_blocks = stats.delta_blocks_decoded;
  return Status::Ok();
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  if (!explain_text.empty()) return explain_text;
  std::string out;
  if (count.has_value()) {
    return StrFormat("COUNT(*) = %llu\n",
                     static_cast<unsigned long long>(*count));
  }
  out += Join(column_names, " | ") + "\n";
  const size_t total = RowCountOut();
  const size_t shown = std::min(total, max_rows);
  const size_t width =
      columnar_valid ? columnar.column_count() : column_names.size();
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> cells;
    cells.reserve(width);
    for (size_t c = 0; c < (columnar_valid ? width : rows[r].size()); ++c) {
      cells.push_back(ValueToString(ValueAt(r, c)));
    }
    out += Join(cells, " | ") + "\n";
  }
  if (total > shown) {
    out += StrFormat("... (%zu more rows)\n", total - shown);
  }
  return out;
}

std::string PhysicalPlan::Explain() const {
  std::string out;
  if (output == Output::kCountStar) {
    out += "CountAggregate\n";
  } else if (output == Output::kAggregate) {
    std::vector<std::string> parts;
    parts.reserve(aggregate_items.size());
    for (const AggregateItem& item : aggregate_items) {
      parts.push_back(item.ToString());
    }
    out += "Aggregate: " + Join(parts, ", ");
    if (pushdown_step.has_value()) out += "  [pushdown]";
    out += "\n";
  } else {
    out += "Project: " + Join(projection_names, ", ") + "\n";
  }
  int depth = 1;
  if (empty_result) {
    out += "  EmptyResult (contradictory predicates)\n";
    out += StrFormat("    GetTable: %s\n", table_name.c_str());
    return out;
  }
  for (size_t i = scan_steps.size(); i-- > 0;) {
    const ScanStep& step = scan_steps[i];
    out += std::string(static_cast<size_t>(depth) * 2, ' ');
    out += StrFormat("%s [%s]: %s\n", StepOpName(step),
                     ScanEngineToString(step.engine),
                     step.spec.ToString().c_str());
    ++depth;
  }
  out += std::string(static_cast<size_t>(depth) * 2, ' ');
  out += StrFormat("GetTable: %s\n", table_name.c_str());
  return out;
}

StatusOr<QueryResult> ExecutePlan(const PhysicalPlan& plan) {
  if (plan.table == nullptr) return Status::InvalidArgument("plan has no table");
  FTS_RETURN_IF_ERROR(CheckCancellation(plan.context));

  if (plan.empty_result) {
    QueryResult result;
    result.matched_rows = 0;
    if (plan.output == PhysicalPlan::Output::kCountStar) {
      result.count = 0;
      result.column_names = {"count"};
    } else if (plan.output == PhysicalPlan::Output::kAggregate) {
      TableScanner::AggResult none;
      none.accumulators.resize(plan.agg_terms.size());
      FTS_RETURN_IF_ERROR(FinalizeAggregates(plan, none, &result));
    } else {
      result.column_names = plan.projection_names;
    }
    return result;
  }

  const int threads = ResolvePlanThreads(plan);
  // Pushed-down aggregates (COUNT(*) included) skip position
  // materialization entirely: the scan kernels fold every term under the
  // final predicate mask.
  if (plan.pushdown_step.has_value()) {
    return ExecuteAggregatePushdown(plan, threads);
  }

  ExecutionReport report;
  TableMatches matches;
  // Running row estimate through the step chain: the first step's scanner
  // estimate, narrowed by each refine predicate's estimated selectivity.
  double est_rows = 0.0;
  for (size_t s = 0; s < plan.scan_steps.size(); ++s) {
    const PhysicalPlan::ScanStep& step = plan.scan_steps[s];
    FTS_RETURN_IF_ERROR(CheckCancellation(plan.context));
    const bool first = s == 0;
    const uint64_t rows_in = first ? 0 : matches.TotalMatches();
    const uint64_t cycles_before = report.counters.cycles;
    const uint64_t misses_before = report.counters.branch_misses;
    Stopwatch timer;
    FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                         TableScanner::Prepare(plan.table, step.spec));
    const ParallelScanOptions options = StepOptions(plan, step, threads);
    FTS_ASSIGN_OR_RETURN(
        TableMatches next,
        first ? ExecuteParallelScan(scanner, options, &report)
              : ExecuteParallelRefine(scanner, matches, options, &report));
    const double millis = timer.ElapsedMillis();
    report.scan_millis += millis;
    est_rows = first ? report.est_rows : est_rows * EstSelectivity(scanner);
    StageReport stage{
        first ? StrFormat("%s [%s]", StepOpName(step),
                          report.executed.ToString().c_str())
              : StrFormat("Refine: %s", step.spec.ToString().c_str()),
        first ? report.rows_scanned : rows_in, next.TotalMatches(), millis};
    stage.has_estimate = report.model_active;
    stage.est_rows_out = est_rows;
    FillStageCounters(report, cycles_before, misses_before, &stage);
    report.stages.push_back(std::move(stage));
    matches = std::move(next);
  }
  RecordCounterMetrics(report);
  // No scan steps: every row matches.
  if (plan.scan_steps.empty()) {
    matches.chunks.resize(plan.table->chunk_count());
    for (ChunkId chunk_id = 0; chunk_id < plan.table->chunk_count();
         ++chunk_id) {
      ChunkMatches& all = matches.chunks[chunk_id];
      all.chunk_id = chunk_id;
      all.positions.resize(plan.table->chunk(chunk_id).row_count());
      std::iota(all.positions.begin(), all.positions.end(), 0u);
    }
  }

  QueryResult result;
  report.rows_matched = matches.TotalMatches();
  result.execution_report = std::move(report);
  result.matched_rows = result.execution_report.rows_matched;
  if (plan.output == PhysicalPlan::Output::kCountStar) {
    result.count = result.matched_rows;
    result.column_names = {"count"};
    return result;
  }
  if (plan.output == PhysicalPlan::Output::kAggregate) {
    // A plan that did not push its aggregates down (multi-step plans, more
    // than kMaxAggTerms terms, or pushdown switched off) folds its
    // position lists through the positions sink, one fold morsel per
    // chunk, exactly as the pushed-down morsels fold.
    Stopwatch aggregate_timer;
    ExecutionReport& folded_report = result.execution_report;
    FTS_ASSIGN_OR_RETURN(
        const PositionsFoldSink sink,
        PositionsFoldSink::Prepare(plan.table, plan.agg_terms));
    ParallelProjectOptions options;
    options.kernel = plan.scan_steps.empty()
                         ? BestAvailableKernel()
                         : GatherKernelFor(folded_report.executed.engine);
    options.threads = threads;
    options.context = plan.context;
    GatherStats stats;
    FTS_ASSIGN_OR_RETURN(const TableScanner::AggResult folded,
                         ExecuteParallelFold(sink, matches, options, &stats));
    for (const ChunkMatches& chunk : matches.chunks) {
      folded_report.agg_positions_chunks += chunk.positions.empty() ? 0 : 1;
    }
    folded_report.agg_delta_blocks = stats.delta_blocks_decoded;
    folded_report.rows_folded = folded.matched;
    FTS_RETURN_IF_ERROR(FinalizeAggregates(plan, folded, &result));
    folded_report.stages.push_back(
        StageReport{"Aggregate", result.matched_rows, 1,
                    aggregate_timer.ElapsedMillis()});
    return result;
  }

  Stopwatch project_timer;
  result.column_names = plan.projection_names;
  FTS_RETURN_IF_ERROR(ProjectColumnar(plan, matches, threads, &result));
  StageReport project_stage{"Project", result.matched_rows,
                            result.RowCountOut(),
                            project_timer.ElapsedMillis()};
  project_stage.has_estimate = result.execution_report.model_active;
  project_stage.est_rows_out =
      plan.limit.has_value()
          ? std::min(result.execution_report.est_rows,
                     static_cast<double>(*plan.limit))
          : result.execution_report.est_rows;
  result.execution_report.stages.push_back(std::move(project_stage));
  return result;
}

std::string RenderExplainAnalyze(const PhysicalPlan& plan,
                                 const QueryResult& result) {
  const ExecutionReport& report = result.execution_report;
  std::string out;

  // Output node with its actuals (the trailing stage when one exists).
  const StageReport* output_stage = nullptr;
  if (report.stages.size() > plan.scan_steps.size()) {
    output_stage = &report.stages.back();
  }
  if (plan.output == PhysicalPlan::Output::kCountStar) {
    out += StrFormat("CountAggregate  (count=%llu)\n",
                     static_cast<unsigned long long>(
                         result.count.value_or(result.matched_rows)));
  } else if (plan.output == PhysicalPlan::Output::kAggregate) {
    std::vector<std::string> parts;
    parts.reserve(plan.aggregate_items.size());
    for (const AggregateItem& item : plan.aggregate_items) {
      parts.push_back(item.ToString());
    }
    out += "Aggregate: " + Join(parts, ", ");
    if (output_stage != nullptr) {
      out += StrFormat("  (actual rows in=%llu, time=%.3f ms)",
                       static_cast<unsigned long long>(output_stage->rows_in),
                       output_stage->millis);
    }
    out += "\n";
    // Which fold each chunk took: a kernel loop, or positions through
    // the sink (plans that do not push down fold positions only).
    out += StrFormat("  AggregatePushdown: %s (rows folded=%llu",
                     report.aggregate_pushdown ? "yes" : "no",
                     static_cast<unsigned long long>(report.rows_folded));
    if (report.aggregate_pushdown) {
      out += StrFormat(
          ", kernel chunks=%llu",
          static_cast<unsigned long long>(report.agg_kernel_chunks));
    }
    out += StrFormat(
        ", positions chunks=%llu",
        static_cast<unsigned long long>(report.agg_positions_chunks));
    if (report.agg_delta_blocks > 0) {
      out += StrFormat(
          ", delta blocks decoded=%llu",
          static_cast<unsigned long long>(report.agg_delta_blocks));
    }
    out += ")\n";
  } else {
    out += "Project: " + Join(plan.projection_names, ", ");
    if (output_stage != nullptr) {
      out += StrFormat("  (actual rows=%llu, time=%.3f ms)",
                       static_cast<unsigned long long>(output_stage->rows_out),
                       output_stage->millis);
    }
    out += "\n";
    // Late-materialization gather attribution (DESIGN.md §16). Rendered
    // whenever a projection executed — harnesses grep for `Gather:`.
    if (!report.gather_engine.empty()) {
      out += StrFormat("  Gather: engine=%s", report.gather_engine.c_str());
      uint64_t gathered = 0;
      for (size_t e = 0; e < 6; ++e) gathered += report.gather_rows[e];
      if (gathered > 0) {
        std::vector<std::string> parts;
        for (size_t e = 0; e < 6; ++e) {
          if (report.gather_rows[e] == 0) continue;
          parts.push_back(StrFormat(
              "%s x%llu",
              ColumnEncodingName(static_cast<ColumnEncoding>(e)),
              static_cast<unsigned long long>(report.gather_rows[e])));
        }
        out += " cells={" + Join(parts, ", ") + "}";
        out += StrFormat(
            ", kernel=%llu typed=%llu",
            static_cast<unsigned long long>(report.gather_kernel_rows),
            static_cast<unsigned long long>(report.gather_typed_rows));
        if (report.gather_delta_blocks > 0) {
          out += StrFormat(
              ", delta blocks decoded=%llu",
              static_cast<unsigned long long>(report.gather_delta_blocks));
        }
      }
      out += "\n";
    }
  }

  // Query lifecycle actuals. The `Deadline:` and `QueueWait:` markers are
  // rendered unconditionally — harnesses grep for them.
  if (report.deadline_millis > 0) {
    out += StrFormat("  Deadline: %lld ms\n",
                     static_cast<long long>(report.deadline_millis));
  } else {
    out += "  Deadline: none\n";
  }
  out += StrFormat("  QueueWait: %.3f ms\n", report.queue_wait_millis);

  int depth = 1;
  if (plan.empty_result) {
    out += "  EmptyResult (contradictory predicates, nothing scanned)\n";
    out += StrFormat("    GetTable: %s\n", plan.table_name.c_str());
    return out;
  }

  for (size_t i = plan.scan_steps.size(); i-- > 0;) {
    const PhysicalPlan::ScanStep& step = plan.scan_steps[i];
    const std::string indent(static_cast<size_t>(depth) * 2, ' ');
    out += indent;
    out += StrFormat("%s [%s]: %s\n", StepOpName(step),
                     ScanEngineToString(step.engine),
                     step.spec.ToString().c_str());
    if (i < report.stages.size()) {
      const StageReport& stage = report.stages[i];
      out += indent;
      out += StrFormat("  actual: rows in=%llu out=%llu",
                       static_cast<unsigned long long>(stage.rows_in),
                       static_cast<unsigned long long>(stage.rows_out));
      if (stage.has_estimate) {
        out += StrFormat(" (est out=%.0f)", stage.est_rows_out);
      }
      out += StrFormat(", time=%.3f ms", stage.millis);
      if (stage.counters_valid) {
        out += StrFormat(", cycles=%llu, branch_misses=%llu",
                         static_cast<unsigned long long>(stage.cycles),
                         static_cast<unsigned long long>(stage.branch_misses));
      }
      if (i == 0) {
        out += StrFormat(", executed=%s%s",
                         report.executed.ToString().c_str(),
                         report.degraded ? " [degraded]" : "");
      }
      out += "\n";
    }
    if (i == 0) {
      // First (full-chunk) step: morsel/worker attribution and JIT status.
      if (report.morsel_count > 0) {
        out += indent;
        out += StrFormat("  parallel: workers=%d morsels=%zu engines={%s}\n",
                         report.worker_count, report.morsel_count,
                         report.EngineMix().c_str());
      }
      // Cost model (DESIGN.md §14). Rendered unconditionally — harnesses
      // grep for the `CostModel:` marker.
      out += indent;
      if (!report.model_active) {
        out += "  CostModel: off\n";
      } else {
        out += StrFormat("  CostModel: on, chunks reordered=%zu",
                         report.chunks_reordered);
        out += StrFormat(", est rows=%.0f actual=%llu\n", report.est_rows,
                         static_cast<unsigned long long>(report.rows_matched));
      }
      if (report.jit_cache_hits + report.jit_cache_misses > 0) {
        out += indent;
        // Morsels that ran tier 0 while a compile was pending show in the
        // engine mix above; a strict query's compile wait shows here.
        out += StrFormat("  jit: cache %llu hit, %llu compile%s queued",
                         static_cast<unsigned long long>(report.jit_cache_hits),
                         static_cast<unsigned long long>(
                             report.jit_cache_misses),
                         report.jit_cache_misses == 1 ? "" : "s");
        if (report.jit_compile_millis > 0.0) {
          out += StrFormat(", compile=%.3f ms", report.jit_compile_millis);
        }
        out += "\n";
      }
      // Per-stage encoding mix (counted per chunk x predicate during
      // Prepare) plus the compressed-domain work counters.
      uint64_t encoded_stages = 0;
      for (const uint64_t count : report.stage_encodings) {
        encoded_stages += count;
      }
      if (encoded_stages > 0) {
        out += indent;
        out += "  Encodings: ";
        std::vector<std::string> parts;
        for (size_t e = 0; e < 6; ++e) {
          if (report.stage_encodings[e] == 0) continue;
          parts.push_back(StrFormat(
              "%s x%llu",
              ColumnEncodingName(static_cast<ColumnEncoding>(e)),
              static_cast<unsigned long long>(report.stage_encodings[e])));
        }
        out += Join(parts, ", ");
        if (report.rle_runs_classified > 0) {
          out += StrFormat(
              "; rle runs classified=%llu skipped=%llu",
              static_cast<unsigned long long>(report.rle_runs_classified),
              static_cast<unsigned long long>(report.rle_runs_skipped));
        }
        if (report.delta_blocks_pruned + report.delta_blocks_decoded > 0) {
          out += StrFormat(
              "; delta blocks pruned=%llu decoded=%llu",
              static_cast<unsigned long long>(report.delta_blocks_pruned),
              static_cast<unsigned long long>(report.delta_blocks_decoded));
        }
        out += "\n";
      }
    }
    ++depth;
  }

  out += std::string(static_cast<size_t>(depth) * 2, ' ');
  out += StrFormat("GetTable: %s  (chunks=%zu", plan.table_name.c_str(),
                   report.chunks_total);
  if (report.chunks_pruned > 0 || report.stages_dropped > 0) {
    out += StrFormat(", pruned=%zu", report.chunks_pruned);
    if (report.stages_dropped > 0) {
      out += StrFormat(", stages dropped=%zu", report.stages_dropped);
    }
    out += StrFormat(", ~%llu bytes skipped",
                     static_cast<unsigned long long>(report.bytes_skipped));
  }
  out += StrFormat(", rows scanned=%llu)\n",
                   static_cast<unsigned long long>(report.rows_scanned));

  out += report.counters.ToString() + "\n";
  // Per-engine attribution under the Counters: line — which engine burned
  // which cycles when a query mixed engines across morsels or stages.
  for (const EngineCounters& ec : report.engine_counters) {
    out += StrFormat("  %s: regions=%llu cycles=%llu",
                     ec.choice.ToString().c_str(),
                     static_cast<unsigned long long>(ec.regions),
                     static_cast<unsigned long long>(ec.cycles));
    if (ec.instructions > 0 && ec.cycles > 0) {
      out += StrFormat(" ipc=%.2f", static_cast<double>(ec.instructions) /
                                        static_cast<double>(ec.cycles));
    }
    out += StrFormat(" branch_misses=%llu\n",
                     static_cast<unsigned long long>(ec.branch_misses));
  }
  return out;
}

}  // namespace fts
