#include "fts/db/database.h"

#include <algorithm>
#include <cmath>

#include "fts/common/env.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/cost/cost_profile.h"
#include "fts/exec/admission.h"
#include "fts/exec/timer_wheel.h"
#include "fts/obs/metrics.h"
#include "fts/obs/query_log.h"
#include "fts/obs/trace.h"
#include "fts/plan/lqp.h"
#include "fts/plan/optimizer.h"
#include "fts/plan/translator.h"
#include "fts/sql/parser.h"

namespace fts {
namespace {

// Per-engine cost-model drift histograms for the query log
// (`fts_cost_est_error_permille{engine="..."}`): |est - actual| relative
// error in permille, recorded on every model-active query so dashboards
// see calibration drift before adaptive choices go bad. Resolved once,
// like EngineExecutionCounter.
obs::Histogram* CostEstErrorHistogram(ScanEngine engine) {
  static obs::Histogram* const* histograms = [] {
    static obs::Histogram* table[9];
    for (int i = 0; i < 9; ++i) {
      const auto e = static_cast<ScanEngine>(i);
      table[i] = obs::MetricsRegistry::Global().GetHistogram(
          StrFormat("fts_cost_est_error_permille{engine=\"%s\"}",
                    ScanEngineLabel(e)),
          "Cost-model row-estimate error per executed engine, in permille");
    }
    return table;
  }();
  const auto index = static_cast<size_t>(engine);
  return histograms[index < 9 ? index : 0];
}

// Terminal outcome label for the query log.
const char* QueryStatusLabel(const Status& status) {
  if (status.ok()) return "ok";
  switch (status.code()) {
    case StatusCode::kQueryCanceled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline";
    case StatusCode::kAdmissionRejected:
      return "rejected";
    default:
      return "error";
  }
}

// Records one finished query (success or failure) in the always-on query
// log and feeds the cost-model drift histogram. `report` may be null when
// the query failed before execution produced one.
void RecordQueryStats(const std::string& sql, const Status& status,
                      const ExecutionReport* report, double total_millis) {
  if (!obs::ObsEnabled()) return;
  obs::QueryLogEntry entry;
  entry.digest = obs::SqlDigest(sql);
  entry.status = QueryStatusLabel(status);
  entry.total_millis = total_millis;
  if (report != nullptr) {
    entry.engine = ScanEngineLabel(report->executed.engine);
    entry.counter_source = CounterSourceToString(report->counters.source);
    entry.scan_millis = report->scan_millis;
    entry.jit_compile_millis = report->jit_compile_millis;
    entry.queue_wait_millis = report->queue_wait_millis;
    entry.rows_scanned = report->rows_scanned;
    entry.rows_matched = report->rows_matched;
    entry.worker_count = report->worker_count;
    entry.morsel_count = report->morsel_count;
    entry.chunks_total = report->chunks_total;
    entry.chunks_pruned = report->chunks_pruned;
    entry.degraded = report->degraded;
    entry.aggregate_pushdown = report->aggregate_pushdown;
    entry.model_active = report->model_active;
    if (report->model_active && status.ok()) {
      const double actual = static_cast<double>(report->rows_matched);
      const double error =
          1000.0 * std::abs(report->est_rows - actual) /
          std::max(actual, 1.0);
      entry.est_error_permille = static_cast<int64_t>(error);
      CostEstErrorHistogram(report->executed.engine)
          ->Record(static_cast<uint64_t>(error));
    }
  }
  obs::QueryLog::Global().Record(std::move(entry));
}

}  // namespace

Status Database::RegisterTable(const std::string& name, TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (name.empty()) return Status::InvalidArgument("empty table name");
  const auto [it, inserted] = tables_.emplace(name, std::move(table));
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("table '%s' already registered", name.c_str()));
  }
  return Status::Ok();
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound(StrFormat("no table named '%s'", name.c_str()));
  }
  return Status::Ok();
}

StatusOr<TablePtr> Database::GetTable(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("no table named '%s'", name.c_str()));
  }
  return it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

ScanEngine Database::DefaultEngine() { return cost::BestFusedEngine(); }

StatusOr<PhysicalPlan> Database::Plan(const SelectStatement& statement,
                                      const QueryOptions& options,
                                      QueryContext* context,
                                      std::string* explain_text) const {
  FTS_ASSIGN_OR_RETURN(const TablePtr table, GetTable(statement.table));
  LqpNodePtr lqp;
  {
    obs::TraceSpan span("build_lqp", "plan");
    FTS_ASSIGN_OR_RETURN(lqp, BuildLqp(statement, statement.table, table));
  }

  const ScanEngine engine = options.engine.value_or(DefaultEngine());

  if (explain_text != nullptr) {
    *explain_text += "-- Logical plan (unoptimized)\n";
    *explain_text += ExplainLqp(lqp);
  }

  if (options.optimize) {
    obs::TraceSpan span("optimize", "plan");
    OptimizerOptions optimizer_options;
    optimizer_options.enable_reordering = options.reorder_predicates;
    // Fusion only helps engines that execute a whole chain in one
    // operator; the SISD and blockwise baselines keep per-predicate scans
    // (Fig. 8, left).
    optimizer_options.enable_fusion =
        engine != ScanEngine::kSisdNoVec &&
        engine != ScanEngine::kSisdAutoVec &&
        engine != ScanEngine::kBlockwise;
    FTS_RETURN_IF_ERROR(OptimizeLqp(&lqp, optimizer_options));
    if (explain_text != nullptr) {
      *explain_text += "-- Logical plan (optimized)\n";
      *explain_text += ExplainLqp(lqp);
    }
  }

  obs::TraceSpan span("translate", "plan");
  TranslatorOptions translator_options;
  translator_options.engine = engine;
  translator_options.jit_register_bits = options.jit_register_bits;
  translator_options.fallback = options.fallback;
  translator_options.threads = options.threads;
  translator_options.enable_aggregate_pushdown = options.aggregate_pushdown;
  translator_options.context = context;
  // An explicit engine request pins every chunk to it; only when the
  // caller left the choice to the system may the cost model adapt per
  // chunk (FTS_ADAPTIVE=0 still disables it globally).
  translator_options.adaptive = !options.engine.has_value();
  FTS_ASSIGN_OR_RETURN(PhysicalPlan plan,
                       TranslateLqp(lqp, translator_options));
  if (explain_text != nullptr) {
    *explain_text += "-- Physical plan\n";
    *explain_text += plan.Explain();
  }
  return plan;
}

StatusOr<QueryResult> Database::Query(const std::string& sql,
                                      const QueryOptions& options) const {
  obs::TraceSpan query_span("query", "db");
  Stopwatch timer;
  obs::Metrics().queries_total->Increment();

  SelectStatement statement;
  {
    obs::TraceSpan span("parse", "sql");
    FTS_ASSIGN_OR_RETURN(statement, ParseSelect(sql));
  }

  if (statement.explain && !statement.analyze) {
    // EXPLAIN: plan only, never execute — no admission slot, no deadline.
    QueryResult result;
    FTS_RETURN_IF_ERROR(
        Plan(statement, options, nullptr, &result.explain_text).status());
    obs::Metrics().query_micros->Record(
        static_cast<uint64_t>(timer.ElapsedMicros()));
    return result;
  }

  // Query lifecycle: one context carries the deadline, cancellation flag
  // and memory budget through every layer below. Callers that want to
  // cancel concurrently pass their own.
  const std::shared_ptr<QueryContext> ctx =
      options.context != nullptr ? options.context : QueryContext::Create();
  if (options.deadline_millis > 0) {
    ctx->SetDeadlineMillis(options.deadline_millis);
  }
  const uint64_t budget =
      options.memory_budget_bytes > 0
          ? options.memory_budget_bytes
          : static_cast<uint64_t>(
                GetEnvInt64("FTS_QUERY_MEMORY_BUDGET_BYTES", 0));
  if (budget > 0) ctx->SetMemoryBudget(budget);

  // Classifies a lifecycle failure into the right counter. Admission
  // rejections are counted by the controller itself.
  const auto count_failure = [](const Status& status) {
    if (status.code() == StatusCode::kQueryCanceled) {
      obs::Metrics().queries_cancelled_total->Increment();
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      obs::Metrics().queries_deadline_exceeded_total->Increment();
    }
  };

  // Admission: take a bounded run-queue slot before planning. Queue time
  // counts against the deadline — a query that waits past it leaves the
  // queue canceled instead of occupying a slot it can no longer use.
  StatusOr<AdmissionController::Ticket> ticket =
      AdmissionController::Global().Admit(ctx.get());
  if (!ticket.ok()) {
    count_failure(ticket.status());
    RecordQueryStats(sql, ticket.status(), nullptr, timer.ElapsedMillis());
    return ticket.status();
  }

  // The deadline fires asynchronously on the global timer wheel (so a
  // query stuck on one uninterruptible kernel still flips the flag in
  // time for the next boundary) and is also checked lazily against the
  // clock at every cancellation point. weak_ptr: the wheel may outlive
  // this query, and Cancel() below may lose the race with the tick
  // thread.
  TimerWheel::TimerId deadline_timer = 0;
  if (ctx->has_deadline()) {
    std::weak_ptr<QueryContext> weak = ctx;
    deadline_timer = TimerWheel::Global().Schedule(
        static_cast<int64_t>(ctx->RemainingMillis()), [weak] {
          if (const std::shared_ptr<QueryContext> locked = weak.lock()) {
            locked->Cancel(StatusCode::kDeadlineExceeded);
          }
        });
  }
  struct TimerGuard {
    TimerWheel::TimerId id;
    ~TimerGuard() {
      if (id != 0) TimerWheel::Global().Cancel(id);
    }
  } timer_guard{deadline_timer};

  StatusOr<PhysicalPlan> planned =
      Plan(statement, options, ctx.get(), nullptr);
  if (!planned.ok()) {
    count_failure(planned.status());
    RecordQueryStats(sql, planned.status(), nullptr, timer.ElapsedMillis());
    return planned.status();
  }
  PhysicalPlan plan = std::move(planned).value();
  if (statement.analyze) plan.collect_counters = true;

  StatusOr<QueryResult> executed = ExecutePlan(plan);
  if (!executed.ok()) {
    count_failure(executed.status());
    RecordQueryStats(sql, executed.status(), nullptr, timer.ElapsedMillis());
    return executed.status();
  }
  QueryResult result = std::move(executed).value();

  ExecutionReport& report = result.execution_report;
  report.deadline_millis = ctx->deadline_millis();
  report.queue_wait_millis =
      static_cast<double>(ctx->queue_wait_micros()) / 1000.0;
  if (report.degraded) {
    obs::Metrics().degradation_events_total->Increment();
  }
  if (statement.analyze) {
    result.explain_text = RenderExplainAnalyze(plan, result);
  }
  obs::Metrics().query_micros->Record(
      static_cast<uint64_t>(timer.ElapsedMicros()));
  RecordQueryStats(sql, Status::Ok(), &report, timer.ElapsedMillis());
  return result;
}

StatusOr<std::string> Database::Explain(const std::string& sql,
                                        const QueryOptions& options) const {
  SelectStatement statement;
  {
    obs::TraceSpan span("parse", "sql");
    FTS_ASSIGN_OR_RETURN(statement, ParseSelect(sql));
  }
  std::string text;
  FTS_RETURN_IF_ERROR(Plan(statement, options, nullptr, &text).status());
  return text;
}

}  // namespace fts
