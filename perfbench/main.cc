// End-to-end Database::Query benchmark. One process: ingest, first query,
// fixed warm-up, then a timed closed loop; every answer is checked.
//
//   fts_perfbench --workload paper_count|mixed_sql --seed N --seconds S
//                 [--trace 0|1] [--trace-file PATH]
//
// --trace 0 reports the end-to-end metrics of an untraced loop. --trace 1
// runs every query twice, back to back: once through Database::Query, then
// as a replay that makes the same public calls, each inside a span timed
// here, and reports per-layer metrics. Prints one JSON line: {"attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "fts/common/query_context.h"
#include "fts/common/random.h"
#include "fts/common/stats.h"
#include "fts/common/timer.h"
#include "fts/cost/cost_profile.h"
#include "fts/db/database.h"
#include "fts/exec/parallel_scan.h"
#include "fts/jit/jit_cache.h"
#include "fts/plan/lqp.h"
#include "fts/plan/optimizer.h"
#include "fts/plan/translator.h"
#include "fts/scan/table_scan.h"
#include "fts/sql/parser.h"
#include "fts/storage/table_statistics.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using fts::Database;
using fts::ExecutionReport;
using fts::QueryResult;
using fts::ScanEngine;
using fts::StatusOr;

constexpr uint64_t kWarmupPerClient = 100;
constexpr double kWarmupSeconds = 60.0;  // Cap only; the count ends it.
constexpr int kExplainPairs = 3;
constexpr size_t kCeilingInts = size_t{64} << 20;  // 256 MB of uint32.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

// num / den, or 0 when nothing was counted.
double Div(double num, double den) { return den > 0 ? num / den : 0.0; }

// Percentile `p` in [0, 1] of `values`, or 0 when there are none.
double Percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : fts::Percentile(values, p * 100.0);
}

struct Usage {
  long minor_faults = 0;
  long max_rss_kb = 0;
};

Usage ProcessUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {usage.ru_minflt, usage.ru_maxrss};
}

Database::QueryOptions OptionsFor(const Workload& workload,
                                  const BenchQuery& query) {
  Database::QueryOptions options;
  options.threads = workload.threads;
  if (query.op == OpType::kJitCount) options.engine = ScanEngine::kJit;
  return options;
}

bool Matches(const BenchQuery& query, const StatusOr<QueryResult>& result) {
  if (!result.ok()) return false;
  const std::optional<Answer> answer = AnswerOf(query.op, *result);
  return answer.has_value() && *answer == query.expected;
}

// What one client saw during a timed loop.
struct ClientLog {
  std::vector<double> latency_ms[kNumOpTypes];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  // ExecutionReport totals over successful queries.
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;
  uint64_t morsels = 0;
  double queue_wait_ms = 0.0;
  std::vector<double> est_error_permille;

  void Record(const BenchQuery& query, const StatusOr<QueryResult>& result,
              double ms) {
    ++attempted;
    latency_ms[static_cast<int>(query.op)].push_back(ms);
    if (!Matches(query, result)) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = query.sql + " -> " +
                        (result.ok() ? std::string("wrong answer")
                                     : result.status().ToString());
      }
      return;
    }
    const ExecutionReport& report = result->execution_report;
    rows_scanned += report.rows_scanned;
    rows_matched += report.rows_matched;
    chunks_total += report.chunks_total;
    chunks_pruned += report.chunks_pruned;
    morsels += report.morsel_count;
    queue_wait_ms += report.queue_wait_millis;
    if (report.model_active) {
      const double actual = static_cast<double>(report.rows_matched);
      est_error_permille.push_back(1000.0 *
                                   std::abs(report.est_rows - actual) /
                                   std::max(actual, 1.0));
    }
  }

  void Merge(const ClientLog& other) {
    for (int i = 0; i < kNumOpTypes; ++i) {
      latency_ms[i].insert(latency_ms[i].end(), other.latency_ms[i].begin(),
                           other.latency_ms[i].end());
    }
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
    rows_scanned += other.rows_scanned;
    rows_matched += other.rows_matched;
    chunks_total += other.chunks_total;
    chunks_pruned += other.chunks_pruned;
    morsels += other.morsels;
    queue_wait_ms += other.queue_wait_ms;
    est_error_permille.insert(est_error_permille.end(),
                              other.est_error_permille.begin(),
                              other.est_error_permille.end());
  }

  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const auto& per_op : latency_ms) {
      all.insert(all.end(), per_op.begin(), per_op.end());
    }
    return all;
  }
};

// Seeded draw of the next query by the workload's per-type weights. The
// same (seed, client) replays the same sequence in the traced loop.
class QueryPicker {
 public:
  QueryPicker(const Workload& workload, uint64_t seed, int client)
      : rng_(seed * 1000003 + static_cast<uint64_t>(client) + 1) {
    for (size_t i = 0; i < workload.queries.size(); ++i) {
      by_op_[static_cast<int>(workload.queries[i].op)].push_back(i);
    }
    weights_ = workload.weights;
  }

  size_t Next() {
    int roll = static_cast<int>(rng_.NextBounded(100));
    int op = 0;
    while (op + 1 < kNumOpTypes &&
           (roll >= weights_[op] || by_op_[op].empty())) {
      roll -= weights_[op];
      ++op;
    }
    const std::vector<size_t>& pool = by_op_[op];
    return pool[rng_.NextBounded(pool.size())];
  }

 private:
  fts::Xoshiro256 rng_;
  std::vector<size_t> by_op_[kNumOpTypes];
  std::array<int, kNumOpTypes> weights_{};
};

// Runs `body(client)` on workload.clients threads and joins them.
template <typename Body>
void RunClients(const Workload& workload, Body body) {
  std::vector<std::thread> threads;
  for (int c = 0; c < workload.clients; ++c) {
    threads.emplace_back([&body, c] { body(c); });
  }
  for (std::thread& thread : threads) thread.join();
}

struct LoopResult {
  ClientLog log;
  double wall_s = 0.0;
  long minor_faults = 0;
};

// Untraced closed loop: every client calls Database::Query back to back
// until `seconds` have passed or it has sent `per_client_limit` queries
// (0 = no limit).
LoopResult RunQueryLoop(const Database& db, const Workload& workload,
                        uint64_t seed, double seconds,
                        uint64_t per_client_limit = 0) {
  std::vector<ClientLog> logs(static_cast<size_t>(workload.clients));
  const Usage before = ProcessUsage();
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  RunClients(workload, [&](int c) {
    QueryPicker picker(workload, seed, c);
    ClientLog& log = logs[static_cast<size_t>(c)];
    while (NowNanos() < deadline &&
           (per_client_limit == 0 || log.attempted < per_client_limit)) {
      const BenchQuery& query = workload.queries[picker.Next()];
      const int64_t t0 = NowNanos();
      StatusOr<QueryResult> result =
          db.Query(query.sql, OptionsFor(workload, query));
      log.Record(query, result, Ms(NowNanos() - t0));
    }
  });
  LoopResult out;
  out.wall_s = static_cast<double>(NowNanos() - start) / 1e9;
  out.minor_faults = ProcessUsage().minor_faults - before.minor_faults;
  for (const ClientLog& log : logs) out.log.Merge(log);
  return out;
}

// ---- Traced replay ----

// Span names of the phases Database::Query runs, in order. Their sum is
// the attributed part of a query.
constexpr const char* kQueryPhases[] = {
    "sql.parse", "plan.build", "plan.optimize", "plan.translate",
    "plan.execute", "obs.render"};

// Times one scope as a span of `recorder`.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int32_t parent,
             uint64_t query_id)
      : recorder_(recorder), index_(recorder.Begin(name, parent, query_id)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

// The calls Database::Query makes for `sql` (minus admission, the deadline
// timer, the query log and metrics), each in its own span under a
// "db.query" root. Planner and translator options follow Database::Plan:
// fusion unless the engine is a per-predicate baseline, and cost-model
// adaptivity unless the engine was pinned. `plan_out` receives the plan,
// which borrows `context`.
StatusOr<QueryResult> ReplayQuery(const fts::TablePtr& table,
                                  const std::string& sql,
                                  const Database::QueryOptions& options,
                                  fts::QueryContext* context,
                                  SpanRecorder& recorder, uint64_t query_id,
                                  fts::PhysicalPlan* plan_out) {
  ScopedSpan root(recorder, "db.query", -1, query_id);
  const int32_t parent = root.index();
  fts::SelectStatement statement;
  {
    ScopedSpan span(recorder, "sql.parse", parent, query_id);
    FTS_ASSIGN_OR_RETURN(statement, fts::ParseSelect(sql));
  }
  fts::LqpNodePtr lqp;
  {
    ScopedSpan span(recorder, "plan.build", parent, query_id);
    FTS_ASSIGN_OR_RETURN(lqp, fts::BuildLqp(statement, statement.table, table));
  }
  const ScanEngine engine = options.engine.value_or(Database::DefaultEngine());
  {
    ScopedSpan span(recorder, "plan.optimize", parent, query_id);
    fts::OptimizerOptions optimizer_options;
    optimizer_options.enable_reordering = options.reorder_predicates;
    optimizer_options.enable_fusion = engine != ScanEngine::kSisdNoVec &&
                                      engine != ScanEngine::kSisdAutoVec &&
                                      engine != ScanEngine::kBlockwise;
    FTS_RETURN_IF_ERROR(fts::OptimizeLqp(&lqp, optimizer_options));
  }
  fts::PhysicalPlan plan;
  {
    ScopedSpan span(recorder, "plan.translate", parent, query_id);
    fts::TranslatorOptions translator_options;
    translator_options.engine = engine;
    translator_options.jit_register_bits = options.jit_register_bits;
    translator_options.fallback = options.fallback;
    translator_options.threads = options.threads;
    translator_options.enable_aggregate_pushdown = options.aggregate_pushdown;
    translator_options.context = context;
    translator_options.adaptive = !options.engine.has_value();
    FTS_ASSIGN_OR_RETURN(plan, fts::TranslateLqp(lqp, translator_options));
  }
  if (statement.analyze) plan.collect_counters = true;
  StatusOr<QueryResult> executed = [&] {
    ScopedSpan span(recorder, "plan.execute", parent, query_id);
    return fts::ExecutePlan(plan);
  }();
  if (executed.ok() && statement.analyze) {
    ScopedSpan span(recorder, "obs.render", parent, query_id);
    executed->explain_text = fts::RenderExplainAnalyze(plan, *executed);
  }
  *plan_out = std::move(plan);
  return executed;
}

// Prepare + morsel count over the plan's single fused scan step, as its
// own "scan.replay" root. Returns the count, or nullopt on failure;
// `bytes` receives 4 bytes per scanned row.
std::optional<uint64_t> ReplayScan(const fts::PhysicalPlan& plan,
                                   int threads, SpanRecorder& recorder,
                                   uint64_t query_id, uint64_t* bytes) {
  ScopedSpan root(recorder, "scan.replay", -1, query_id);
  const fts::PhysicalPlan::ScanStep& step = plan.scan_steps.front();
  StatusOr<fts::TableScanner> scanner = [&] {
    ScopedSpan span(recorder, "scan.prepare", root.index(), query_id);
    return fts::TableScanner::Prepare(plan.table, step.spec);
  }();
  if (!scanner.ok()) return std::nullopt;
  fts::ParallelScanOptions options;
  options.requested = {step.engine, step.engine == ScanEngine::kJit
                                        ? step.jit_register_bits
                                        : 0};
  options.fallback = plan.fallback;
  options.threads = threads;
  ExecutionReport report;
  StatusOr<uint64_t> count = [&] {
    ScopedSpan span(recorder, "scan.run", root.index(), query_id);
    return fts::ExecuteParallelScanCount(*scanner, options, &report);
  }();
  if (!count.ok()) return std::nullopt;
  *bytes += report.rows_scanned * sizeof(int32_t);
  return *count;
}

struct TracedResult {
  LoopResult loop;  // The Database::Query calls.
  std::vector<SpanRecorder> recorders;
  uint64_t replays = 0;
  uint64_t replay_failures = 0;
  uint64_t scans = 0;
  uint64_t scan_bytes = 0;
  std::string first_failure;
};

// The traced loop: each client draws queries as in RunQueryLoop and runs
// each one twice, back to back: once through Database::Query, timed as a
// whole, then as a replay with a span per call. Pairing the two in time
// keeps machine noise out of `Query wall - spans`. Every replay answer must
// equal the answer Database::Query gave for the same SQL in warm-up
// (`query_answers`).
TracedResult RunTracedLoop(
    const Database& db, const Workload& workload,
    const std::vector<std::optional<Answer>>& query_answers, uint64_t seed,
    double seconds) {
  TracedResult out;
  for (int c = 0; c < workload.clients; ++c) out.recorders.emplace_back(c + 1);
  std::vector<TracedResult> per_client(static_cast<size_t>(workload.clients));
  const int scan_threads = workload.threads > 0 ? workload.threads : 1;
  const Usage before = ProcessUsage();
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  RunClients(workload, [&](int c) {
    QueryPicker picker(workload, seed, c);
    SpanRecorder& recorder = out.recorders[static_cast<size_t>(c)];
    TracedResult& mine = per_client[static_cast<size_t>(c)];
    uint64_t query_id = static_cast<uint64_t>(c) << 40;
    while (NowNanos() < deadline) {
      const size_t index = picker.Next();
      const BenchQuery& query = workload.queries[index];
      const Database::QueryOptions options = OptionsFor(workload, query);
      const int64_t t0 = NowNanos();
      const StatusOr<QueryResult> queried = db.Query(query.sql, options);
      mine.loop.log.Record(query, queried, Ms(NowNanos() - t0));

      const std::shared_ptr<fts::QueryContext> context =
          fts::QueryContext::Create();
      fts::PhysicalPlan plan;
      const StatusOr<QueryResult> result =
          ReplayQuery(workload.table, query.sql, options, context.get(),
                      recorder, ++query_id, &plan);
      ++mine.replays;
      const std::optional<Answer> answer =
          result.ok() ? AnswerOf(query.op, *result) : std::nullopt;
      bool ok = answer.has_value() && query_answers[index].has_value() &&
                *answer == *query_answers[index];
      if (ok && query.op == OpType::kCount && plan.scan_steps.size() == 1 &&
          !plan.empty_result) {
        const std::optional<uint64_t> count = ReplayScan(
            plan, scan_threads, recorder, query_id, &mine.scan_bytes);
        ++mine.scans;
        ok = count.has_value() && *count == query.expected.count;
      }
      if (!ok) {
        ++mine.replay_failures;
        if (mine.first_failure.empty()) {
          mine.first_failure = "replay: " + query.sql;
        }
      }
    }
  });
  out.loop.wall_s = static_cast<double>(NowNanos() - start) / 1e9;
  out.loop.minor_faults = ProcessUsage().minor_faults - before.minor_faults;
  for (const TracedResult& mine : per_client) {
    out.loop.log.Merge(mine.loop.log);
    out.replays += mine.replays;
    out.replay_failures += mine.replay_failures;
    out.scans += mine.scans;
    out.scan_bytes += mine.scan_bytes;
    if (out.first_failure.empty()) out.first_failure = mine.first_failure;
  }
  return out;
}

// Total span time per name across all recorders, in ms.
std::map<std::string, double> SpanTotals(
    const std::vector<SpanRecorder>& recorders) {
  std::map<std::string, double> totals;
  for (const SpanRecorder& recorder : recorders) {
    for (const Span& span : recorder.spans()) {
      totals[span.name] += Ms(span.end_ns - span.start_ns);
    }
  }
  return totals;
}

// Median ratio of EXPLAIN ANALYZE to plain wall time over the same COUNT
// shapes: the workload's EXPLAIN queries, else its COUNT queries.
double ExplainOverhead(const Database& db, const Workload& workload) {
  constexpr const char* kPrefix = "EXPLAIN ANALYZE ";
  std::vector<const BenchQuery*> shapes;
  for (const OpType op : {OpType::kExplain, OpType::kCount}) {
    for (const BenchQuery& query : workload.queries) {
      if (query.op == op && shapes.size() < 8) shapes.push_back(&query);
    }
    if (!shapes.empty()) break;
  }
  std::vector<double> ratios;
  for (const BenchQuery* query : shapes) {
    const bool is_explain = query->op == OpType::kExplain;
    const std::string plain =
        is_explain ? query->sql.substr(std::strlen(kPrefix)) : query->sql;
    const std::string explain = is_explain ? query->sql : kPrefix + query->sql;
    for (int rep = 0; rep < kExplainPairs; ++rep) {
      const auto time = [&](const std::string& sql) {
        const int64_t t0 = NowNanos();
        const bool ok = db.Query(sql, OptionsFor(workload, *query)).ok();
        return ok ? Ms(NowNanos() - t0) : -1.0;
      };
      const double plain_ms = time(plain);
      const double explain_ms = time(explain);
      if (plain_ms > 0 && explain_ms > 0) {
        ratios.push_back(explain_ms / plain_ms);
      }
    }
  }
  return Percentile(ratios, 0.5);
}

// Best-of-3 read bandwidth of `threads` threads summing disjoint slices of
// a 256 MB buffer. fts::MeasurePeakReadBandwidthGbs is built without
// vectorization for Fig. 2, and on one thread it reads less than the scan
// itself does, so it cannot serve as the ceiling.
double MemoryCeilingGbs(int threads) {
  std::vector<uint32_t> data(kCeilingInts);
  std::iota(data.begin(), data.end(), 0u);
  const size_t slice = data.size() / static_cast<size_t>(threads);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNanos();
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        const uint32_t* begin = data.data() + static_cast<size_t>(t) * slice;
        fts::DoNotOptimizeAway(std::accumulate(begin, begin + slice, 0u));
      });
    }
    for (std::thread& reader : readers) reader.join();
    const double bytes = static_cast<double>(slice * sizeof(uint32_t)) *
                         static_cast<double>(threads);
    best = std::max(best, bytes / static_cast<double>(NowNanos() - t0));
  }
  return best;
}

// ---- Output ----

class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0,
                    entries_[i].unit);
      out += buffer;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         (args->workload == "paper_count" || args->workload == "mixed_sql");
}

int Run(const Args& args) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Workload workload =
      args.workload == "paper_count"
          ? MakePaperCount(args.seed, nproc)
          : MakeMixedSql(args.seed);
  Database db;
  FTS_CHECK(db.RegisterTable("t", workload.table).ok());

  MetricSink metrics;
  ClientLog setup_log;
  // Traced runs pay statistics and calibration explicitly, so each has
  // its own number; untraced runs leave both to the first query.
  double stats_ms = 0.0;
  double calibrate_ms = 0.0;
  if (args.trace) {
    int64_t t0 = NowNanos();
    FTS_CHECK(fts::GetCachedStatistics(workload.table) != nullptr);
    stats_ms = Ms(NowNanos() - t0);
    t0 = NowNanos();
    (void)fts::cost::CalibratedProfile();
    calibrate_ms = Ms(NowNanos() - t0);
  }

  // First query, then the fixed warm-up: every distinct query once, which
  // compiles the JIT shapes, then kWarmupPerClient queries per client from
  // all clients at once. The answers of the serial pass are what the traced
  // replay must reproduce.
  std::vector<std::optional<Answer>> query_answers(workload.queries.size());
  const auto run_setup_query = [&](size_t index) {
    const BenchQuery& query = workload.queries[index];
    const int64_t t0 = NowNanos();
    StatusOr<QueryResult> result =
        db.Query(query.sql, OptionsFor(workload, query));
    const double ms = Ms(NowNanos() - t0);
    setup_log.Record(query, result, ms);
    if (result.ok()) query_answers[index] = AnswerOf(query.op, *result);
    return ms;
  };
  const double first_query_ms = run_setup_query(0);
  const int64_t warmup_start = NowNanos();
  for (size_t i = 0; i < workload.queries.size(); ++i) run_setup_query(i);
  setup_log.Merge(RunQueryLoop(db, workload, ~args.seed, kWarmupSeconds,
                               kWarmupPerClient)
                      .log);
  const double warmup_ms = Ms(NowNanos() - warmup_start);
  const double setup_s = (workload.ingest_ms + stats_ms + calibrate_ms +
                          first_query_ms + warmup_ms) / 1e3;
  const fts::JitCache::Stats jit_before = fts::GlobalJitCache().stats();

  // Untraced runs time Database::Query alone; traced runs pair each call
  // with its replay.
  TracedResult traced;
  if (args.trace) {
    traced = RunTracedLoop(db, workload, query_answers, args.seed,
                           args.seconds);
  } else {
    traced.loop = RunQueryLoop(db, workload, args.seed, args.seconds);
  }
  const ClientLog& log = traced.loop.log;
  const std::vector<double> all = log.AllLatencies();
  const double queries = static_cast<double>(log.attempted);
  // Replays execute too, so a traced run spreads its faults over both.
  const double minor_faults_per_query =
      Div(static_cast<double>(traced.loop.minor_faults),
          queries + static_cast<double>(traced.replays));

  const uint64_t attempted =
      setup_log.attempted + log.attempted + traced.replays;
  const uint64_t failed =
      setup_log.failed + log.failed + traced.replay_failures;
  std::string first_failure = setup_log.first_failure;
  if (first_failure.empty()) first_failure = log.first_failure;
  if (first_failure.empty()) first_failure = traced.first_failure;

  if (!args.trace) {
    metrics.Add("qps", queries / traced.loop.wall_s, "1/s");
    metrics.Add("query_ms.p50", Percentile(all, 0.5), "ms");
    metrics.Add("query_ms.p90", Percentile(all, 0.9), "ms");
    metrics.Add("query_ms.p99", Percentile(all, 0.99), "ms");
    for (int op = 0; op < kNumOpTypes; ++op) {
      if (log.latency_ms[op].empty()) continue;
      metrics.Add(
          std::string(OpTypeName(static_cast<OpType>(op))) + "_ms.p50",
          Percentile(log.latency_ms[op], 0.5), "ms");
    }
    metrics.Add("first_query_ms", first_query_ms, "ms");
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("peak_rss_mb",
                static_cast<double>(ProcessUsage().max_rss_kb) / 1024.0, "MB");
    metrics.Add("exec.minor_faults_per_query", minor_faults_per_query,
                "count");
    metrics.Add("samples", queries, "count");
  } else {
    const fts::JitCache::Stats jit_after = fts::GlobalJitCache().stats();

    const std::map<std::string, double> totals = SpanTotals(traced.recorders);
    const auto total = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    const auto per_replay = [&](const char* name) {
      return Div(total(name), static_cast<double>(traced.replays));
    };
    const auto per_scan = [&](const char* name) {
      return Div(total(name), static_cast<double>(traced.scans));
    };
    double attributed_ms = 0.0;
    for (const char* phase : kQueryPhases) attributed_ms += per_replay(phase);
    double query_wall_ms = 0.0;
    for (const double ms : all) query_wall_ms += ms;
    const double query_mean_ms = Div(query_wall_ms, queries);

    metrics.Add("sql.parse_ms", per_replay("sql.parse"), "ms");
    metrics.Add("plan.build_ms", per_replay("plan.build"), "ms");
    metrics.Add("plan.optimize_ms", per_replay("plan.optimize"), "ms");
    metrics.Add("plan.translate_ms", per_replay("plan.translate"), "ms");
    metrics.Add("plan.execute_ms", per_replay("plan.execute"), "ms");
    metrics.Add("obs.render_ms", per_replay("obs.render"), "ms");
    metrics.Add("db.unattributed_ms", query_mean_ms - attributed_ms, "ms");
    metrics.Add("scan.prepare_ms", per_scan("scan.prepare"), "ms");
    metrics.Add("scan.run_ms", per_scan("scan.run"), "ms");
    // Bytes per ms / 1e6 = GB/s.
    const double scan_gbps = Div(static_cast<double>(traced.scan_bytes),
                                 total("scan.run") * 1e6);
    const double ceiling_gbps = MemoryCeilingGbs(nproc);
    metrics.Add("scan.gbps", scan_gbps, "GB/s");
    metrics.Add("scan.roofline_frac", Div(scan_gbps, ceiling_gbps),
                "fraction");
    metrics.Add("mem.ceiling_gbps", ceiling_gbps, "GB/s");
    metrics.Add("scan.chunks_pruned_frac",
                Div(static_cast<double>(log.chunks_pruned),
                    static_cast<double>(log.chunks_total)),
                "fraction");
    metrics.Add("scan.rows_scanned_per_match",
                Div(static_cast<double>(log.rows_scanned),
                    static_cast<double>(log.rows_matched)),
                "ratio");
    metrics.Add("exec.minor_faults_per_query", minor_faults_per_query,
                "count");
    metrics.Add("exec.morsels_per_query",
                Div(static_cast<double>(log.morsels), queries), "count");
    metrics.Add("exec.queue_wait_ms", Div(log.queue_wait_ms, queries), "ms");
    metrics.Add("storage.ingest_ms", workload.ingest_ms, "ms");
    metrics.Add("storage.stats_ms", stats_ms, "ms");
    metrics.Add("cost.calibrate_ms", calibrate_ms, "ms");
    metrics.Add("cost.est_error_permille",
                Percentile(log.est_error_permille, 0.5), "permille");
    metrics.Add("jit.compile_ms", jit_after.total_compile_millis, "ms");
    const uint64_t hits = jit_after.hits - jit_before.hits;
    const uint64_t misses = jit_after.misses - jit_before.misses;
    metrics.Add("jit.cache_hit_ratio",
                Div(static_cast<double>(hits),
                    static_cast<double>(hits + misses)),
                "ratio");
    metrics.Add("obs.explain_overhead_x", ExplainOverhead(db, workload),
                "ratio");
    metrics.Add("trace.overhead_frac",
                Div(per_replay("db.query"), query_mean_ms) - 1.0, "fraction");
    if (!args.trace_file.empty() &&
        !WriteChromeTrace(args.trace_file, traced.recorders)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
      return 1;
    }
  }
  if (!first_failure.empty()) {
    std::fprintf(stderr, "first failure: %s\n", first_failure.c_str());
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fts_perfbench --workload paper_count|mixed_sql "
                 "--seed N --seconds S [--trace 0|1] [--trace-file PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}
