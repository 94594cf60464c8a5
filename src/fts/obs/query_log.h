#ifndef FTS_OBS_QUERY_LOG_H_
#define FTS_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fts::obs {

// Always-on query statistics (DESIGN.md §15): a fixed-capacity ring of the
// last N executed queries, written on every Database::Query completion
// (success or failure). Recording is lock-cheap — one atomic slot claim
// plus one uncontended per-slot mutex — so it stays on for production
// traffic; FTS_OBS=0 turns it (and the slow-query log) off entirely.
//
// This layer deliberately knows nothing about scan engines or plans: the
// entry carries pre-rendered labels, so obs keeps its no-upward-dependency
// rule. The database layer fills entries from its ExecutionReport.

// One completed query. All strings are small, pre-rendered labels.
struct QueryLogEntry {
  uint64_t id = 0;  // Monotonic sequence number, assigned by Record().
  int64_t wall_unix_micros = 0;  // Completion time, assigned by Record().
  // Normalized SQL shape (literals replaced by '?'), see SqlDigest().
  std::string digest;
  // Terminal outcome: "ok", "cancelled", "deadline", "rejected", "error".
  std::string status;
  std::string engine;          // Executed engine label ("jit", ...).
  std::string counter_source;  // "hardware" or "unavailable".
  double total_millis = 0.0;
  double scan_millis = 0.0;
  double jit_compile_millis = 0.0;
  double queue_wait_millis = 0.0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  int worker_count = 0;
  uint64_t morsel_count = 0;
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;
  bool degraded = false;
  // The aggregates (a plain COUNT(*) included) were folded in the scan.
  bool aggregate_pushdown = false;
  bool model_active = false;
  // Cost-model drift: |est - actual| / max(actual, 1) in permille, valid
  // only when `model_active` (the PR 8 model produced an estimate).
  int64_t est_error_permille = 0;
};

// Replaces literals in `sql` with '?' and collapses whitespace, so the log
// groups queries by shape instead of leaking every constant. Output is
// capped at 160 characters.
std::string SqlDigest(const std::string& sql);

// True unless FTS_OBS is set to a falsy value. Read from the environment
// on every call so tests (and operators with a debugger) can flip it at
// runtime; the cost is one getenv per query.
bool ObsEnabled();

class QueryLog {
 public:
  // `slow_threshold_ms` < 0 disables the slow-query log; >= 0 appends a
  // JSON line to `slow_log_path` for every query at least that slow.
  explicit QueryLog(size_t capacity, double slow_threshold_ms = -1.0,
                    std::string slow_log_path = "");

  // Claims the next ring slot and stores `entry` (stamping id and wall
  // time). Thread-safe; concurrent writers never block each other unless
  // they collide on the same slot modulo capacity.
  void Record(QueryLogEntry entry);

  // Queries recorded over the log's lifetime (not capped by capacity).
  uint64_t total_recorded() const {
    return next_id_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return slots_.size(); }

  // The retained entries, newest first, capped at `max_entries`
  // (0 = all retained). Safe against concurrent writers: a slot being
  // overwritten yields either the old or the new entry, never a torn one.
  std::vector<QueryLogEntry> Snapshot(size_t max_entries = 0) const;

  // JSON array of Snapshot(max_entries), newest first.
  std::string RenderJson(size_t max_entries = 0) const;

  // Process-wide instance: capacity from FTS_QUERY_LOG_SIZE (default 256),
  // slow-query config from FTS_SLOW_QUERY_MS / FTS_SLOW_QUERY_LOG
  // (default path fts_slow_query.log; threshold unset = disabled).
  static QueryLog& Global();

 private:
  struct Slot {
    mutable std::mutex mutex;
    bool used = false;
    QueryLogEntry entry;
  };

  void MaybeLogSlow(const QueryLogEntry& entry);

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_id_{0};
  const double slow_threshold_ms_;
  const std::string slow_log_path_;
  std::mutex slow_log_mutex_;
};

// Serializes one entry as a JSON object (the slow-query log line format;
// also used per-element by RenderJson).
std::string QueryLogEntryToJson(const QueryLogEntry& entry);

}  // namespace fts::obs

#endif  // FTS_OBS_QUERY_LOG_H_
