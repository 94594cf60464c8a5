#ifndef FTS_DB_DATABASE_H_
#define FTS_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "fts/common/query_context.h"
#include "fts/common/status.h"
#include "fts/plan/physical_plan.h"
#include "fts/scan/scan_engine.h"
#include "fts/sql/ast.h"
#include "fts/storage/table.h"

namespace fts {

// Top-level facade tying the whole pipeline together (Fig. 9):
//   SQL string -> parser -> LQP -> optimizer -> LQP translator ->
//   physical plan -> executor.
//
// Typical use:
//   Database db;
//   db.RegisterTable("tbl", table);
//   auto result = db.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2");
class Database {
 public:
  struct QueryOptions {
    // Engine for scan operators. Defaults to the fastest fused engine the
    // CPU supports (AVX-512 512-bit on the paper's hardware class).
    std::optional<ScanEngine> engine;
    int jit_register_bits = 512;
    // What happens when the chosen engine fails at runtime (JIT compiler
    // missing/erroring/timing out, dlopen failure, unsupported CPU):
    // kLadder (default) demotes through the degradation ladder —
    // JIT-512 -> JIT-256/128 -> AVX-512 fused -> AVX2 -> scalar fused ->
    // SISD — and records every demotion in QueryResult::execution_report;
    // kStrict fails the query with the engine's error.
    FallbackPolicy fallback = FallbackPolicy::kLadder;
    // Disable individual optimizer passes (for study/ablation).
    bool optimize = true;
    bool reorder_predicates = true;
    // Worker threads for the scan: morsel-driven chunk parallelism via the
    // work-stealing TaskPool (fts/exec). 0 = FTS_THREADS env, defaulting
    // to 1 (morsels run inline on the calling thread); N > 1 = N workers.
    // Results are byte-identical for every value;
    // QueryResult::execution_report records the worker count and
    // per-morsel engine decisions.
    int threads = 0;
    // Fold single-step aggregate projections inside the scan instead of
    // over materialized position lists (see TranslatorOptions). Disable to
    // force the fold over materialized position lists.
    bool aggregate_pushdown = true;
    // Wall-clock deadline for the whole query — admission queueing,
    // planning, and execution all count against it. 0 = none. The global
    // TimerWheel flips the context when it expires and the query returns
    // kDeadlineExceeded at its next cancellation point (morsel/chunk/plan
    // step boundary; running SIMD kernels are uninterruptible).
    int64_t deadline_millis = 0;
    // Budget for in-flight scan scratch (per-chunk position lists); the
    // query fails with kResourceExhausted when a reservation would exceed
    // it. 0 = FTS_QUERY_MEMORY_BUDGET_BYTES env, else unlimited.
    uint64_t memory_budget_bytes = 0;
    // External lifecycle context. When set, the deadline/budget fields
    // above are applied to it and the caller may Cancel() it from another
    // thread (or a signal handler) while the query runs — the shell's
    // \cancel and Ctrl-C do exactly that. Null: Query creates its own.
    std::shared_ptr<QueryContext> context;
  };

  Database() = default;

  // Registers an existing table under `name`.
  Status RegisterTable(const std::string& name, TablePtr table);
  Status DropTable(const std::string& name);
  StatusOr<TablePtr> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // Parses, plans, optimizes, and executes `sql`. (Overloads instead of a
  // `= {}` default: nested-class default member initializers are not yet
  // parsed when an in-class default argument would need them.)
  //
  // An `EXPLAIN SELECT ...` statement plans without executing and returns
  // the rendered plans in QueryResult::explain_text; `EXPLAIN ANALYZE`
  // executes the query with counter collection enabled and returns the
  // physical plan annotated with actuals (RenderExplainAnalyze).
  StatusOr<QueryResult> Query(const std::string& sql,
                              const QueryOptions& options) const;
  StatusOr<QueryResult> Query(const std::string& sql) const {
    return Query(sql, QueryOptions());
  }

  // Returns the logical plan before/after optimization and the physical
  // plan, as text.
  StatusOr<std::string> Explain(const std::string& sql,
                                const QueryOptions& options) const;
  StatusOr<std::string> Explain(const std::string& sql) const {
    return Explain(sql, QueryOptions());
  }

  // The engine Query() uses when options.engine is unset: the best fused
  // engine this CPU runs (cost::BestFusedEngine()).
  static ScanEngine DefaultEngine();

 private:
  StatusOr<PhysicalPlan> Plan(const SelectStatement& statement,
                              const QueryOptions& options,
                              QueryContext* context,
                              std::string* explain_text) const;

  std::map<std::string, TablePtr> tables_;
};

}  // namespace fts

#endif  // FTS_DB_DATABASE_H_
