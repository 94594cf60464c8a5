// Interactive SQL shell over the fused-scan engine. Demonstrates the full
// Fig. 9 pipeline on ad-hoc data: generate tables, load CSVs, switch scan
// engines, inspect plans.
//
// Usage: fts_shell [script-file]  (reads stdin when no file is given)
//
// Commands:
//   SELECT ...;                 run a query with the current engine
//   \gen NAME ROWS SEL[,SEL..]  generate a scan table (c0..cN columns)
//   \load NAME FILE             load a CSV (typed header "name:type,...")
//   \tables                     list registered tables
//   \engine NAME                set engine (sisd-novec, avx512-512, jit, ...)
//   \threads N                  scan worker threads (0 = FTS_THREADS)
//   \stats NAME                 per-chunk zone maps (min/max/rows) of NAME
//   \encoding NAME [COL ENC]    show or change per-column encodings
//   \explain SQL                show logical + physical plans
//   (EXPLAIN ANALYZE SELECT ... runs the query and prints the plan with
//   actual rows, per-stage times, per-morsel engines and counters.)
//   \timeout MS                 per-query deadline (0 clears)
//   \cancel [MS]                cancel the next query MS ms after start;
//                               Ctrl-C cancels the in-flight query
//   \timing on|off              toggle per-query wall-clock reporting
//   \metrics                    dump the process metrics registry
//   \queries [N]                last N entries of the always-on query log
//   \trace on FILE | \trace off record spans, write Chrome trace JSON
//   \help                       this text
//   \quit

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>

#include "fts/common/query_context.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/db/database.h"
#include "fts/exec/timer_wheel.h"
#include "fts/obs/metrics.h"
#include "fts/obs/query_log.h"
#include "fts/obs/trace.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/csv_loader.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {

using fts::Database;

constexpr char kHelp[] =
    "  SELECT ...;                 run a query with the current engine\n"
    "  \\gen NAME ROWS SEL[,SEL..] generate a scan table\n"
    "  \\load NAME FILE            load a CSV with typed header\n"
    "  \\tables                    list registered tables\n"
    "  \\engine NAME               set scan engine\n"
    "  \\threads N                 scan worker threads (0 = FTS_THREADS)\n"
    "  \\stats NAME                per-chunk zone maps of table NAME\n"
    "  \\encoding NAME             per-column encoding mix of table NAME\n"
    "  \\encoding NAME COL ENC     re-encode column COL as ENC (plain,\n"
    "                             dict, bitpacked, rle, for, delta);\n"
    "                             chunks that cannot carry ENC stay plain\n"
    "  \\explain SQL               show the plans for SQL\n"
    "  EXPLAIN ANALYZE SELECT ... run a query, print the annotated plan\n"
    "  \\timeout MS                deadline for every query (0 clears)\n"
    "  \\cancel [MS]               cancel the next query MS ms after it\n"
    "                             starts (default 0); Ctrl-C cancels the\n"
    "                             in-flight query\n"
    "  \\timing on|off             toggle timing output\n"
    "  \\metrics                   dump the process metrics registry\n"
    "  \\queries [N]               last N logged queries (default 10)\n"
    "  \\trace on FILE             start recording trace spans\n"
    "  \\trace off                 stop, write Chrome trace JSON to FILE\n"
    "  \\help                      show this help\n"
    "  \\quit                      exit\n";

// The in-flight query's context, for the SIGINT handler. Cancel() is a
// couple of lock-free atomic stores, so calling it from the handler is
// async-signal-safe; the query notices at its next morsel/chunk boundary.
std::atomic<fts::QueryContext*> g_active_query{nullptr};

void HandleSigint(int) {
  fts::QueryContext* ctx = g_active_query.load(std::memory_order_acquire);
  if (ctx != nullptr) ctx->Cancel(fts::StatusCode::kQueryCanceled);
}

struct ShellState {
  Database db;
  Database::QueryOptions options;
  bool timing = true;
  // One-shot \cancel delay for the next query; -1 = not armed.
  int64_t cancel_after_millis = -1;
  // Active span recorder (\trace on). Spans accumulate here until
  // \trace off writes them out as Chrome trace JSON.
  std::unique_ptr<fts::obs::TraceSink> trace_sink;
  std::string trace_path;
};

fts::StatusOr<fts::ColumnEncoding> ParseEncoding(const std::string& name) {
  for (int e = 0; e <= 5; ++e) {
    const auto encoding = static_cast<fts::ColumnEncoding>(e);
    if (name == fts::ColumnEncodingName(encoding)) return encoding;
  }
  return fts::Status::InvalidArgument(fts::StrFormat(
      "unknown encoding '%s' (plain, dict, bitpacked, rle, for, delta)",
      name.c_str()));
}

// Builds one chunk's column from `values` under `encoding`, mirroring
// TableBuilder's per-chunk best-effort semantics: a chunk whose data
// cannot carry the encoding stays plain and bumps `fallbacks`.
template <typename T>
fts::ColumnPtr EncodeValues(fts::AlignedVector<T> values,
                            fts::ColumnEncoding encoding,
                            size_t* fallbacks) {
  switch (encoding) {
    case fts::ColumnEncoding::kDictionary:
      return std::make_shared<fts::DictionaryColumn<T>>(
          fts::DictionaryColumn<T>::FromValues(values));
    case fts::ColumnEncoding::kBitPacked: {
      std::vector<T> distinct(values.begin(), values.end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      if (fts::BitPackedColumn<T>::BitWidthFor(distinct.size()) <=
          fts::kMaxPackedBits) {
        return std::make_shared<fts::BitPackedColumn<T>>(
            fts::BitPackedColumn<T>::FromValues(values));
      }
      break;
    }
    case fts::ColumnEncoding::kRle:
      return std::make_shared<fts::RleColumn<T>>(
          fts::RleColumn<T>::FromValues(values));
    case fts::ColumnEncoding::kFor:
      if constexpr (std::is_integral_v<T>) {
        if (auto encoded = fts::ForColumn<T>::TryFromValues(values)) {
          return std::make_shared<fts::ForColumn<T>>(std::move(*encoded));
        }
      }
      break;
    case fts::ColumnEncoding::kDelta:
      if constexpr (std::is_integral_v<T>) {
        if (auto encoded = fts::DeltaColumn<T>::TryFromValues(values)) {
          return std::make_shared<fts::DeltaColumn<T>>(std::move(*encoded));
        }
      }
      break;
    case fts::ColumnEncoding::kPlain:
      break;
  }
  if (encoding != fts::ColumnEncoding::kPlain) ++*fallbacks;
  return std::make_shared<fts::ValueColumn<T>>(std::move(values));
}

// Writes out a still-recording trace on exit so \quit or EOF never drops
// recorded spans.
void FlushTrace(ShellState& state) {
  if (state.trace_sink == nullptr) return;
  fts::obs::DetachTraceSink();
  const auto status = state.trace_sink->WriteChromeTrace(state.trace_path);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
  } else {
    std::printf("wrote %zu spans to %s\n", state.trace_sink->size(),
                state.trace_path.c_str());
  }
  state.trace_sink.reset();
  state.trace_path.clear();
}

void RunCommand(ShellState& state, const std::string& line) {
  std::istringstream in(line);
  std::string command;
  in >> command;

  if (command == "\\help") {
    std::fputs(kHelp, stdout);
    return;
  }
  if (command == "\\tables") {
    for (const std::string& name : state.db.TableNames()) {
      const auto table = state.db.GetTable(name);
      std::printf("  %-20s %llu rows, %zu columns\n", name.c_str(),
                  static_cast<unsigned long long>((*table)->row_count()),
                  (*table)->column_count());
    }
    return;
  }
  if (command == "\\engine") {
    std::string name;
    in >> name;
    const auto engine = fts::ParseScanEngine(name);
    if (!engine.ok()) {
      std::printf("error: %s\n", engine.status().ToString().c_str());
      return;
    }
    if (!fts::ScanEngineAvailable(*engine)) {
      std::printf("error: %s unavailable on this CPU\n",
                  fts::ScanEngineToString(*engine));
      return;
    }
    state.options.engine = *engine;
    std::printf("engine = %s\n", fts::ScanEngineToString(*engine));
    return;
  }
  if (command == "\\threads") {
    int threads = -1;
    in >> threads;
    if (threads < 0) {
      std::printf("usage: \\threads N (0 = FTS_THREADS/auto, 1 = serial)\n");
      return;
    }
    state.options.threads = threads;
    if (threads == 0) {
      std::printf("threads = auto (FTS_THREADS, else serial)\n");
    } else {
      std::printf("threads = %d\n", threads);
    }
    return;
  }
  if (command == "\\timeout") {
    long long millis = -1;
    in >> millis;
    if (millis < 0) {
      std::printf("usage: \\timeout MS (0 clears the deadline)\n");
      return;
    }
    state.options.deadline_millis = millis;
    if (millis == 0) {
      std::printf("timeout cleared\n");
    } else {
      std::printf("timeout = %lld ms per query\n", millis);
    }
    return;
  }
  if (command == "\\cancel") {
    long long millis = 0;
    in >> millis;  // Optional; absent leaves 0 (cancel at first boundary).
    if (millis < 0) {
      std::printf("usage: \\cancel [MS]\n");
      return;
    }
    state.cancel_after_millis = millis;
    std::printf("next query will be canceled %lld ms after it starts\n",
                millis);
    return;
  }
  if (command == "\\timing") {
    std::string flag;
    in >> flag;
    state.timing = (flag != "off");
    std::printf("timing %s\n", state.timing ? "on" : "off");
    return;
  }
  if (command == "\\gen") {
    std::string name;
    size_t rows = 0;
    std::string sels_text;
    in >> name >> rows >> sels_text;
    if (name.empty() || rows == 0 || sels_text.empty()) {
      std::printf("usage: \\gen NAME ROWS SEL[,SEL...]\n");
      return;
    }
    fts::ScanTableOptions options;
    options.rows = rows;
    // Chunk at the row-wise default so big tables are multi-chunk and
    // \threads N has morsels to schedule.
    options.chunk_size = fts::kDefaultChunkSize;
    for (const std::string& field : fts::Split(sels_text, ',')) {
      options.selectivities.push_back(std::atof(field.c_str()));
    }
    const auto generated = fts::MakeScanTable(options);
    const auto status = state.db.RegisterTable(name, generated.table);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("created %s (%zu rows, %zu columns; search values:",
                name.c_str(), rows, options.selectivities.size());
    for (const int32_t v : generated.search_values) std::printf(" %d", v);
    std::printf(")\n");
    return;
  }
  if (command == "\\load") {
    std::string name, path;
    in >> name >> path;
    if (name.empty() || path.empty()) {
      std::printf("usage: \\load NAME FILE\n");
      return;
    }
    const auto table = fts::LoadCsvFile(path, fts::CsvOptions{});
    if (!table.ok()) {
      std::printf("error: %s\n", table.status().ToString().c_str());
      return;
    }
    const auto status = state.db.RegisterTable(name, *table);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("loaded %s (%llu rows)\n", name.c_str(),
                static_cast<unsigned long long>((*table)->row_count()));
    return;
  }
  if (command == "\\stats") {
    std::string name;
    in >> name;
    if (name.empty()) {
      std::printf("usage: \\stats NAME\n");
      return;
    }
    const auto table = state.db.GetTable(name);
    if (!table.ok()) {
      std::printf("error: %s\n", table.status().ToString().c_str());
      return;
    }
    // Cap the dump so \stats on a thousand-chunk table stays readable.
    constexpr size_t kMaxChunks = 16;
    const size_t chunk_count = (*table)->chunk_count();
    const size_t shown = std::min(chunk_count, kMaxChunks);
    std::printf("%s: %llu rows, %zu columns, %zu chunks\n", name.c_str(),
                static_cast<unsigned long long>((*table)->row_count()),
                (*table)->column_count(), chunk_count);
    for (fts::ChunkId chunk_id = 0; chunk_id < shown; ++chunk_id) {
      const fts::Chunk& chunk = (*table)->chunk(chunk_id);
      std::printf("  chunk %-4u %8zu rows", chunk_id, chunk.row_count());
      for (size_t c = 0; c < chunk.column_count(); ++c) {
        const fts::ZoneMap* zone = chunk.zone_map(c);
        const std::string& column =
            (*table)->column_definition(c).name;
        if (zone == nullptr) {
          std::printf("  %s=[no zone map]", column.c_str());
          continue;
        }
        std::printf("  %s=[%s, %s]", column.c_str(),
                    fts::ValueToString(zone->min).c_str(),
                    fts::ValueToString(zone->max).c_str());
        if (zone->has_codes) {
          std::printf(" codes [%u, %u]", zone->min_code, zone->max_code);
        }
      }
      std::printf("\n");
    }
    if (shown < chunk_count) {
      std::printf("  ... %zu more chunks\n", chunk_count - shown);
    }
    return;
  }
  if (command == "\\encoding") {
    std::string name, column_name, encoding_name;
    in >> name >> column_name >> encoding_name;
    if (name.empty() || (!column_name.empty() && encoding_name.empty())) {
      std::printf("usage: \\encoding NAME [COL ENC]\n");
      return;
    }
    const auto table = state.db.GetTable(name);
    if (!table.ok()) {
      std::printf("error: %s\n", table.status().ToString().c_str());
      return;
    }
    if (column_name.empty()) {
      // Per-column encoding mix across chunks, in ColumnEncoding order.
      for (size_t c = 0; c < (*table)->column_count(); ++c) {
        size_t counts[6] = {};
        for (fts::ChunkId id = 0; id < (*table)->chunk_count(); ++id) {
          ++counts[static_cast<size_t>(
              (*table)->chunk(id).column(c).encoding())];
        }
        std::printf("  %-16s",
                    (*table)->column_definition(c).name.c_str());
        bool first = true;
        for (size_t e = 0; e < 6; ++e) {
          if (counts[e] == 0) continue;
          std::printf("%s%s x%zu", first ? " " : ", ",
                      fts::ColumnEncodingName(
                          static_cast<fts::ColumnEncoding>(e)),
                      counts[e]);
          first = false;
        }
        std::printf("\n");
      }
      return;
    }
    const auto encoding = ParseEncoding(encoding_name);
    if (!encoding.ok()) {
      std::printf("error: %s\n", encoding.status().ToString().c_str());
      return;
    }
    const auto column_index = (*table)->ColumnIndex(column_name);
    if (!column_index.ok()) {
      std::printf("error: %s\n", column_index.status().ToString().c_str());
      return;
    }
    // Rebuild the table chunk by chunk: untouched columns are shared with
    // the old table (zero copy), the target column is decoded through
    // GetValue and re-encoded, and chunk boundaries are preserved.
    std::vector<fts::ColumnDefinition> schema;
    schema.reserve((*table)->column_count());
    for (size_t c = 0; c < (*table)->column_count(); ++c) {
      schema.push_back((*table)->column_definition(c));
    }
    const fts::DataType type = schema[*column_index].type;
    size_t fallbacks = 0;
    fts::TableBuilder builder(std::move(schema));
    for (fts::ChunkId id = 0; id < (*table)->chunk_count(); ++id) {
      const fts::Chunk& chunk = (*table)->chunk(id);
      std::vector<fts::ColumnPtr> columns;
      columns.reserve(chunk.column_count());
      for (size_t c = 0; c < chunk.column_count(); ++c) {
        if (c != *column_index) {
          columns.push_back(chunk.column_ptr(c));
          continue;
        }
        fts::DispatchDataType(type, [&](auto tag) {
          using T = decltype(tag);
          const fts::BaseColumn& source = chunk.column(c);
          fts::AlignedVector<T> values;
          values.reserve(source.size());
          for (size_t row = 0; row < source.size(); ++row) {
            values.push_back(fts::ValueAs<T>(source.GetValue(row)));
          }
          columns.push_back(
              EncodeValues<T>(std::move(values), *encoding, &fallbacks));
        });
      }
      const auto status = builder.AddChunk(std::move(columns));
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
        return;
      }
    }
    (void)state.db.DropTable(name);
    const auto status = state.db.RegisterTable(name, builder.Build());
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("%s.%s -> %s", name.c_str(), column_name.c_str(),
                fts::ColumnEncodingName(*encoding));
    if (fallbacks > 0) {
      std::printf(" (%zu chunks fell back to plain)", fallbacks);
    }
    std::printf("\n");
    return;
  }
  if (command == "\\explain") {
    std::string sql;
    std::getline(in, sql);
    const auto text = state.db.Explain(sql, state.options);
    if (!text.ok()) {
      std::printf("error: %s\n", text.status().ToString().c_str());
      return;
    }
    std::fputs(text->c_str(), stdout);
    return;
  }
  if (command == "\\metrics") {
    std::fputs(fts::obs::MetricsRegistry::Global().RenderPrometheus().c_str(),
               stdout);
    return;
  }
  if (command == "\\queries") {
    size_t max_entries = 10;
    if (std::string arg; in >> arg) {
      max_entries = static_cast<size_t>(std::strtoull(arg.c_str(), nullptr, 10));
    }
    const auto entries = fts::obs::QueryLog::Global().Snapshot(max_entries);
    if (entries.empty()) {
      std::printf("query log is empty (%llu recorded)\n",
                  static_cast<unsigned long long>(
                      fts::obs::QueryLog::Global().total_recorded()));
      return;
    }
    std::printf("%-6s %-9s %-12s %10s %10s %8s  %s\n", "id", "status",
                "engine", "ms", "rows", "workers", "digest");
    for (const auto& entry : entries) {
      std::printf("%-6llu %-9s %-12s %10.3f %10llu %8d  %s\n",
                  static_cast<unsigned long long>(entry.id),
                  entry.status.c_str(), entry.engine.c_str(),
                  entry.total_millis,
                  static_cast<unsigned long long>(entry.rows_matched),
                  entry.worker_count, entry.digest.c_str());
    }
    std::printf("(%zu shown of %llu recorded; ring capacity %zu)\n",
                entries.size(),
                static_cast<unsigned long long>(
                    fts::obs::QueryLog::Global().total_recorded()),
                fts::obs::QueryLog::Global().capacity());
    return;
  }
  if (command == "\\trace") {
    std::string flag, path;
    in >> flag >> path;
    if (flag == "on") {
      if (path.empty()) {
        std::printf("usage: \\trace on FILE\n");
        return;
      }
      if (state.trace_sink != nullptr) {
        std::printf("trace already recording to %s (\\trace off first)\n",
                    state.trace_path.c_str());
        return;
      }
      state.trace_sink = std::make_unique<fts::obs::TraceSink>();
      state.trace_path = path;
      fts::obs::AttachTraceSink(state.trace_sink.get());
      std::printf("trace recording; \\trace off writes %s\n", path.c_str());
      return;
    }
    if (flag == "off") {
      if (state.trace_sink == nullptr) {
        std::printf("trace is not recording (\\trace on FILE)\n");
        return;
      }
      fts::obs::DetachTraceSink();
      const auto status =
          state.trace_sink->WriteChromeTrace(state.trace_path);
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
      } else {
        std::printf("wrote %zu spans to %s\n", state.trace_sink->size(),
                    state.trace_path.c_str());
      }
      state.trace_sink.reset();
      state.trace_path.clear();
      return;
    }
    std::printf("usage: \\trace on FILE | \\trace off\n");
    return;
  }
  if (command == "\\quit" || command == "\\q") {
    FlushTrace(state);
    std::exit(0);
  }
  std::printf("unknown command %s (try \\help)\n", command.c_str());
}

void RunSql(ShellState& state, const std::string& sql) {
  // Per-query lifecycle context: \timeout applies through QueryOptions,
  // Ctrl-C cancels via g_active_query, \cancel arms a timer-wheel entry.
  const std::shared_ptr<fts::QueryContext> ctx = fts::QueryContext::Create();
  Database::QueryOptions options = state.options;
  options.context = ctx;
  fts::TimerWheel::TimerId cancel_timer = 0;
  if (state.cancel_after_millis >= 0) {
    std::weak_ptr<fts::QueryContext> weak = ctx;
    cancel_timer = fts::TimerWheel::Global().Schedule(
        state.cancel_after_millis, [weak] {
          if (const auto locked = weak.lock()) {
            locked->Cancel(fts::StatusCode::kQueryCanceled);
          }
        });
    state.cancel_after_millis = -1;
  }
  g_active_query.store(ctx.get(), std::memory_order_release);

  fts::Stopwatch stopwatch;
  const auto result = state.db.Query(sql, options);
  const double millis = stopwatch.ElapsedMillis();

  g_active_query.store(nullptr, std::memory_order_release);
  if (cancel_timer != 0) fts::TimerWheel::Global().Cancel(cancel_timer);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::fputs(result->ToString(25).c_str(), stdout);
  // Plain EXPLAIN plans without executing; a timing line for it would
  // report a default ExecutionReport. EXPLAIN ANALYZE (attempts recorded)
  // keeps the line: it shows total wall time including parse/plan.
  const bool executed = result->explain_text.empty() ||
                        !result->execution_report.attempts.empty();
  if (state.timing && executed) {
    const fts::ExecutionReport& report = result->execution_report;
    // Zone-map pruning annotation: only when something was actually pruned.
    std::string pruned;
    if (report.chunks_total > 0 && report.chunks_pruned > 0) {
      pruned = fts::StrFormat(", pruned %zu/%zu chunks",
                              report.chunks_pruned, report.chunks_total);
    }
    // Split total wall time into JIT compilation and scan execution so a
    // cold JIT query is not mistaken for a slow scan.
    std::string timing = fts::StrFormat("%.3f ms", millis);
    if (report.jit_compile_millis > 0.0) {
      timing += fts::StrFormat(" (jit compile %.3f ms + scan %.3f ms)",
                               report.jit_compile_millis,
                               report.scan_millis);
    } else if (report.scan_millis > 0.0) {
      timing += fts::StrFormat(" (scan %.3f ms)", report.scan_millis);
    }
    if (report.morsel_count > 0) {
      std::printf("(%llu rows matched, %s, %s, %d worker%s / %zu "
                  "morsel%s%s)\n",
                  static_cast<unsigned long long>(result->matched_rows),
                  timing.c_str(), report.executed.ToString().c_str(),
                  report.worker_count, report.worker_count == 1 ? "" : "s",
                  report.morsel_count, report.morsel_count == 1 ? "" : "s",
                  pruned.c_str());
    } else {
      std::printf("(%llu rows matched, %s, %s%s)\n",
                  static_cast<unsigned long long>(result->matched_rows),
                  timing.c_str(), report.executed.ToString().c_str(),
                  pruned.c_str());
    }
    if (report.degraded) {
      std::printf("note: degraded from %s — %s\n",
                  report.requested.ToString().c_str(),
                  report.attempts.empty()
                      ? "(no attempts recorded)"
                      : report.attempts.front().status.ToString().c_str());
    }
  }
}

int RunShell(std::istream& in, bool interactive) {
  ShellState state;
  fts::obs::SetCurrentThreadLabel("shell main");
  std::signal(SIGINT, HandleSigint);
  std::printf("Fused Table Scan shell. \\help for commands; default engine "
              "%s.\n",
              fts::ScanEngineToString(Database::DefaultEngine()));
  std::string line;
  while (true) {
    if (interactive) {
      std::printf("fts> ");
      std::fflush(stdout);
    }
    if (!std::getline(in, line)) break;
    const std::string_view trimmed = fts::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (!interactive) std::printf("fts> %s\n", std::string(trimmed).c_str());
    if (trimmed[0] == '\\') {
      RunCommand(state, std::string(trimmed));
    } else {
      RunSql(state, std::string(trimmed));
    }
  }
  FlushTrace(state);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open script '%s'\n", argv[1]);
      return 1;
    }
    return RunShell(file, /*interactive=*/false);
  }
  return RunShell(std::cin, /*interactive=*/true);
}
