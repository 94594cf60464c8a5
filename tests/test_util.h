#ifndef FTS_TESTS_TEST_UTIL_H_
#define FTS_TESTS_TEST_UTIL_H_

// Shared helpers for the scan suites.
//
// FTS_TEST_SEED: every randomized failure message prints a replay command
// of the form
//
//   FTS_TEST_SEED=<seed> ./build/tests/<binary>
//
// and setting that variable makes the parameterized suites run *only* the
// named seed, so a fuzz failure reproduces in one process with one case.
//
// ReferenceScan: the ground truth the scan suites compare against (see
// below). StrictOptions / JitOptions / ScanWith / CountWith: one engine on
// the morsel executor. ReferenceAggregates: the row-loop ground truth for
// every aggregate path. ReferenceStatistics: the row-loop ground truth for
// TableStatistics::Compute.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fts/common/env.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"
#include "fts/sql/ast.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/table_statistics.h"
#include "fts/storage/value.h"
#include "fts/storage/value_column.h"

namespace fts::testing {

// Seed forced via FTS_TEST_SEED, if any. Unset (or negative) means "run
// the suite's normal seed range".
inline std::optional<uint64_t> SeedOverride() {
  const int64_t seed = GetEnvInt64("FTS_TEST_SEED", -1);
  if (seed < 0) return std::nullopt;
  return static_cast<uint64_t>(seed);
}

// The seeds a parameterized suite should instantiate: [lo, hi) normally,
// or just the FTS_TEST_SEED override when one is set.
inline std::vector<uint64_t> SeedRange(uint64_t lo, uint64_t hi) {
  if (const auto forced = SeedOverride()) return {*forced};
  std::vector<uint64_t> seeds;
  seeds.reserve(static_cast<size_t>(hi - lo));
  for (uint64_t seed = lo; seed < hi; ++seed) seeds.push_back(seed);
  return seeds;
}

// Replay hint appended to randomized-failure messages.
inline std::string ReplayCommand(const char* binary, uint64_t seed) {
  return StrFormat("replay: FTS_TEST_SEED=%llu ./build/tests/%s",
                   static_cast<unsigned long long>(seed), binary);
}

// Test-only SISD reference: runs TableScanner::ExecuteChunk(kSisdNoVec)
// over every chunk plan in chunk order. It shares no driver code with the
// executor the suites check — no morsel scheduling, no ladder, no engine
// adaptation, no report — so a driver bug cannot hide in the ground truth.
inline StatusOr<TableMatches> ReferenceScan(const TableScanner& scanner) {
  TableMatches result;
  result.chunks.resize(scanner.chunk_plans().size());
  for (ChunkId chunk_id = 0; chunk_id < scanner.chunk_plans().size();
       ++chunk_id) {
    PosList positions(scanner.chunk_plans()[chunk_id].row_count +
                      kScanOutputSlack);
    FTS_ASSIGN_OR_RETURN(const size_t count,
                         scanner.ExecuteChunk(ScanEngine::kSisdNoVec,
                                              chunk_id, positions.data()));
    positions.resize(count);
    result.chunks[chunk_id].chunk_id = chunk_id;
    result.chunks[chunk_id].positions = std::move(positions);
  }
  return result;
}

inline StatusOr<TableMatches> ReferenceScan(TablePtr table,
                                            const ScanSpec& spec) {
  FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                       TableScanner::Prepare(std::move(table), spec));
  return ReferenceScan(scanner);
}

inline StatusOr<uint64_t> ReferenceCount(const TableScanner& scanner) {
  FTS_ASSIGN_OR_RETURN(const TableMatches matches, ReferenceScan(scanner));
  return matches.TotalMatches();
}

// Morsel-executor options that run exactly `engine` (kStrict: no ladder)
// on `threads` workers; 1 runs the morsels inline on the caller.
inline ParallelScanOptions StrictOptions(EngineChoice engine,
                                         int threads = 1) {
  ParallelScanOptions options;
  options.requested = engine;
  options.fallback = FallbackPolicy::kStrict;
  options.threads = threads;
  return options;
}

// Morsel-executor options for the JIT engine at `width` on 1 thread under
// kStrict: every morsel waits for its signature's compile and runs the
// compiled operator, or the scan fails. A null `cache` selects the
// process-wide cache.
inline ParallelScanOptions JitOptions(int width, JitCache* cache = nullptr) {
  ParallelScanOptions options = StrictOptions({ScanEngine::kJit, width});
  options.cache = cache;
  return options;
}

// For ladder JIT scans (tables whose chunks the JIT may not cover): hands
// `check` the result of `execute()` — an execution under `options` — on a
// cold run ("cold") and again once the compiles that run queued on
// `options`' cache have landed ("warm"). Cold morsels run tier 0, the
// static fused engine, while their compiles are pending; warm morsels run
// the compiled operators. Both must match the reference.
template <typename Execute, typename Check>
void CheckColdAndWarmJit(const ParallelScanOptions& options,
                         Execute&& execute, Check&& check) {
  check(execute(), "cold");
  (options.cache != nullptr ? *options.cache : GlobalJitCache())
      .WaitForPendingCompiles();
  check(execute(), "warm");
}

// Prepare + ExecuteParallelScan under `options`.
inline StatusOr<TableMatches> ScanWith(TablePtr table, const ScanSpec& spec,
                                       const ParallelScanOptions& options) {
  FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                       TableScanner::Prepare(std::move(table), spec));
  return ExecuteParallelScan(scanner, options);
}

// Prepare + one static engine at 1 thread under kStrict.
inline StatusOr<TableMatches> ScanWith(TablePtr table, const ScanSpec& spec,
                                       ScanEngine engine) {
  return ScanWith(std::move(table), spec, StrictOptions({engine, 0}));
}

inline StatusOr<uint64_t> CountWith(TablePtr table, const ScanSpec& spec,
                                    ScanEngine engine) {
  FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                       TableScanner::Prepare(std::move(table), spec));
  return ExecuteParallelScanCount(scanner, StrictOptions({engine, 0}));
}

// Test-only aggregate oracle: a row loop that boxes every matched value
// through BaseColumn::GetValue, sharing no code with the fold kernels, the
// positions sink or the finalizer, but with the finalizer's semantics:
//   - COUNT(*) is a uint64 count;
//   - SUM is exact integer arithmetic in int64 (signed columns) or uint64
//     (unsigned columns) wrapping mod 2^64, or a double sum in row order
//     for float columns;
//   - MIN/MAX stay in the column's type; a NaN never wins a float
//     comparison (the search starts at -inf/+inf);
//   - AVG is that SUM converted to double, divided by the count;
//   - over zero rows MIN/MAX/AVG are NULL, SUM a typed 0.
inline std::vector<Value> ReferenceAggregates(
    const Table& table, const TableMatches& matches,
    const std::vector<AggregateItem>& items) {
  const uint64_t matched = matches.TotalMatches();
  std::vector<Value> row;
  for (const AggregateItem& item : items) {
    if (item.kind == AggregateKind::kCountStar) {
      row.emplace_back(matched);
      continue;
    }
    const size_t column_index = *table.ColumnIndex(item.column);
    DispatchDataType(table.column_definition(column_index).type,
                     [&](auto tag) {
      using T = decltype(tag);
      constexpr bool kFloat = std::is_floating_point_v<T>;
      using Sum = std::conditional_t<
          kFloat, double,
          std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>>;
      uint64_t sum_bits = 0;
      double sum_double = 0.0;
      T min = kFloat ? std::numeric_limits<T>::infinity()
                     : std::numeric_limits<T>::max();
      T max = kFloat ? -std::numeric_limits<T>::infinity()
                     : std::numeric_limits<T>::lowest();
      for (const ChunkMatches& chunk : matches.chunks) {
        const BaseColumn& column =
            table.chunk(chunk.chunk_id).column(column_index);
        for (const ChunkOffset position : chunk.positions) {
          const T value = ValueAs<T>(column.GetValue(position));
          if constexpr (kFloat) {
            sum_double += static_cast<double>(value);
          } else {
            sum_bits += static_cast<uint64_t>(static_cast<Sum>(value));
          }
          if (value < min) min = value;
          if (value > max) max = value;
        }
      }
      Sum sum;
      if constexpr (kFloat) {
        sum = sum_double;
      } else {
        sum = static_cast<Sum>(sum_bits);
      }
      switch (item.kind) {
        case AggregateKind::kSum:
          row.emplace_back(sum);
          break;
        case AggregateKind::kMin:
          row.push_back(matched == 0 ? NullValue() : Value(min));
          break;
        case AggregateKind::kMax:
          row.push_back(matched == 0 ? NullValue() : Value(max));
          break;
        case AggregateKind::kAvg:
          row.push_back(matched == 0
                            ? NullValue()
                            : Value(static_cast<double>(sum) /
                                    static_cast<double>(matched)));
          break;
        case AggregateKind::kCountStar:
          break;
      }
    });
  }
  return row;
}

// ReferenceAggregates over the rows ReferenceScan matches for `spec`'s
// predicates.
inline StatusOr<std::vector<Value>> ReferenceAggregates(
    TablePtr table, const ScanSpec& spec,
    const std::vector<AggregateItem>& items) {
  FTS_ASSIGN_OR_RETURN(const TableMatches matches,
                       ReferenceScan(table, spec));
  return ReferenceAggregates(*table, matches, items);
}

// Test-only reference for TableStatistics::Compute, sharing none of its
// code: min/max from a row loop over every plain value (never the zone
// maps), the sampled distinct count from a hash set of doubles. Same
// per-chunk stride, sample and estimator formula as Compute.
inline std::vector<ColumnStatistics> ReferenceStatistics(
    const Table& table, size_t sample_limit = 1 << 16) {
  std::vector<ColumnStatistics> columns(table.column_count());
  for (size_t c = 0; c < table.column_count(); ++c) {
    bool any = false;
    double min = 0.0;
    double max = 0.0;
    const auto add = [&](double v) {
      min = any ? std::min(min, v) : v;
      max = any ? std::max(max, v) : v;
      any = true;
    };
    std::unordered_set<double> sampled_distinct;
    uint64_t sampled_rows = 0;
    uint64_t dictionary_size = 0;
    bool all_dictionary = true;
    for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
      const BaseColumn& column = table.chunk(chunk_id).column(c);
      DispatchDataType(column.data_type(), [&](auto tag) {
        using T = decltype(tag);
        const auto add_dictionary = [&](const std::vector<T>& dict) {
          if (!dict.empty()) {
            add(static_cast<double>(dict.front()));
            add(static_cast<double>(dict.back()));
          }
          dictionary_size = std::max<uint64_t>(dictionary_size, dict.size());
        };
        switch (column.encoding()) {
          case ColumnEncoding::kDictionary:
            add_dictionary(
                static_cast<const DictionaryColumn<T>&>(column).dictionary());
            break;
          case ColumnEncoding::kBitPacked:
            add_dictionary(
                static_cast<const BitPackedColumn<T>&>(column).dictionary());
            break;
          default: {
            // Plain, RLE, FoR and delta: every row through GetValue.
            const auto value_at = [&](size_t i) {
              return static_cast<double>(ValueAs<T>(column.GetValue(i)));
            };
            const size_t n = column.size();
            for (size_t i = 0; i < n; ++i) add(value_at(i));
            const size_t stride =
                std::max<size_t>(1, n / std::max<size_t>(1, sample_limit));
            for (size_t i = 0; i < n; i += stride) {
              sampled_distinct.insert(value_at(i));
              ++sampled_rows;
            }
            all_dictionary = false;
            break;
          }
        }
      });
    }
    ColumnStatistics& out = columns[c];
    out.row_count = table.row_count();
    out.min = min;
    out.max = max;
    for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
      const ZoneMap* zone = table.chunk(chunk_id).zone_map(c);
      if (zone == nullptr) {
        out.zones.clear();
        break;
      }
      out.zones.push_back({ValueAs<double>(zone->min),
                           ValueAs<double>(zone->max), zone->row_count});
    }
    if (all_dictionary) {
      out.distinct_count = static_cast<double>(dictionary_size);
    } else if (sampled_rows > 0) {
      const double scale = static_cast<double>(table.row_count()) /
                           static_cast<double>(sampled_rows);
      out.distinct_count =
          std::min(static_cast<double>(table.row_count()),
                   static_cast<double>(sampled_distinct.size()) *
                       std::sqrt(scale));
    }
    out.distinct_count = std::max(out.distinct_count, 1.0);
  }
  return columns;
}

}  // namespace fts::testing

#endif  // FTS_TESTS_TEST_UTIL_H_
