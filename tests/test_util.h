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
// the morsel executor.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fts/common/env.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"

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
// the default ladder; a null `cache` selects the process-wide cache.
inline ParallelScanOptions JitOptions(int width, JitCache* cache = nullptr) {
  ParallelScanOptions options;
  options.requested = {ScanEngine::kJit, width};
  options.threads = 1;
  options.cache = cache;
  return options;
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

}  // namespace fts::testing

#endif  // FTS_TESTS_TEST_UTIL_H_
