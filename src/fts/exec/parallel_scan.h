#ifndef FTS_EXEC_PARALLEL_SCAN_H_
#define FTS_EXEC_PARALLEL_SCAN_H_

#include "fts/common/status.h"
#include "fts/exec/task_pool.h"
#include "fts/jit/jit_cache.h"
#include "fts/scan/scan_engine.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/pos_list.h"

namespace fts {

// Morsel-driven execution of a prepared scan step (Hyrise-style
// chunk-granular parallelism), for every engine (kJit included) and every
// thread count, on the morsel loop (fts/exec/morsel_loop.h). Each chunk is
// one morsel; a TaskPool worker (or, at 1 thread, the calling thread
// inline) runs the selected engine rung over its morsels into a
// thread-local PosList, and the per-chunk lists are stitched together in
// chunk order — the output is byte-identical for every thread count.
//
// Degradation is per-morsel: under FallbackPolicy::kLadder each morsel
// walks DegradationLadder() independently, so one chunk's JIT compile
// failure mid-query demotes only that chunk (the JitCache's single-flight
// and negative caching keep concurrent morsels from stampeding a broken
// toolchain). The ExecutionReport records the worker count, the morsel
// count, and every morsel's executed engine.
//
// JIT rungs are tiered: under kLadder a morsel whose operator is not
// compiled yet queues the compile on the cache's worker and runs on
// cost::BestFusedEngine() (tier 0, a choice like the cost model's picks,
// not a degradation); later morsels switch to the compiled operator once
// it lands. Only kStrict waits for the compile.
struct ParallelScanOptions {
  // Engine to run (any rung, including kJit with its register width).
  EngineChoice requested;
  // kLadder demotes failing morsels rung by rung; kStrict fails the scan
  // on the first morsel whose requested rung fails (and waits for a JIT
  // compile instead of running tier 0).
  FallbackPolicy fallback = FallbackPolicy::kLadder;
  // Worker threads: 0 = TaskPool::DefaultThreadCount() (FTS_THREADS env,
  // else hardware concurrency), 1 = run morsels inline on the caller,
  // N > 1 = N workers.
  int threads = 0;
  // Compiled-operator cache for kJit rungs; null = GlobalJitCache().
  JitCache* cache = nullptr;
  // Pool to schedule on; null = TaskPool::Global() when its width matches
  // the resolved thread count, else a scan-local pool.
  TaskPool* pool = nullptr;
  // Query lifecycle context (fts/common/query_context.h); overrides the
  // scanner's captured context when non-null. Cancellation is checked at
  // every morsel boundary and ladder-rung start: a canceled scan stops
  // dispatching new morsels, in-flight morsels run to their boundary (the
  // kernels are uninterruptible), and the pool drains normally — the
  // slot-per-chunk merge then discards cleanly and the scan returns the
  // context's cancel status deterministically.
  QueryContext* context = nullptr;
  // Per-worker PMU attribution (fts/perf/counter_attribution.h): each
  // morsel runs inside a counter region on its executing worker, and the
  // deltas are aggregated into the report's ScanCounters (with
  // morsel/thread coverage accounting) and, for scan morsels, per-engine
  // totals. Off by default — the steady-state cost of false is one branch
  // per morsel.
  bool collect_counters = false;
};

// Runs the prepared scan morsel-by-morsel and materializes matching
// positions per chunk (one ChunkMatches per chunk, in chunk order; pruned
// chunks carry no positions).
StatusOr<TableMatches> ExecuteParallelScan(const TableScanner& scanner,
                                           const ParallelScanOptions& options,
                                           ExecutionReport* report = nullptr);

// Materialize-and-size: runs ExecuteParallelScan and returns the total
// number of matching positions. Every engine, SISD included, collects its
// positions first — the paper's position-list comparison setup. Queries
// answer COUNT(*) as a one-term ExecuteParallelScanAggregate instead.
StatusOr<uint64_t> ExecuteParallelScanCount(
    const TableScanner& scanner, const ParallelScanOptions& options,
    ExecutionReport* report = nullptr);

// Aggregate-pushdown twin: every morsel folds the spec's aggregates —
// inside its kernel loop (JIT morsels compile a specialized aggregate
// operator), or through the positions sink for chunks the kernels cannot
// fold (a JIT rung runs those on the best static engine) — and the
// per-morsel partial accumulators are merged in chunk order: the result
// is byte-identical for every thread count and worker interleaving.
// Requires the scanner's spec to carry aggregates.
StatusOr<TableScanner::AggResult> ExecuteParallelScanAggregate(
    const TableScanner& scanner, const ParallelScanOptions& options,
    ExecutionReport* report = nullptr);

// A later scan step of a non-fused plan: refines `input`, the previous
// step's position lists, through the scanner's conjunction. Every chunk
// with survivors is one position-list morsel (TableScanner::RefineChunk);
// the result has one ChunkMatches per input chunk, in input order. Only
// `threads`, `pool`, `context` and `collect_counters` apply: refine
// morsels run no engine, and their measured regions count into
// `report->counters` like scan morsels.
StatusOr<TableMatches> ExecuteParallelRefine(
    const TableScanner& scanner, const TableMatches& input,
    const ParallelScanOptions& options, ExecutionReport* report = nullptr);

}  // namespace fts

#endif  // FTS_EXEC_PARALLEL_SCAN_H_
