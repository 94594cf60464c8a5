#ifndef FTS_JIT_JIT_SCAN_ENGINE_H_
#define FTS_JIT_JIT_SCAN_ENGINE_H_

#include <optional>

#include "fts/common/status.h"
#include "fts/jit/jit_cache.h"
#include "fts/scan/scan_engine.h"
#include "fts/scan/scan_spec.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/pos_list.h"
#include "fts/storage/table.h"

namespace fts {

// Per-call JIT attribution, accumulated across chunk executions so a
// query's ExecutionReport can split compile time from scan time.
// `cache_misses` counts the lookups that queued a compile: one per compile
// the query started.
struct JitChunkStats {
  double compile_millis = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  void Merge(const JitChunkStats& other) {
    compile_millis += other.compile_millis;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }
};

// A JIT morsel's match count, or nothing when the tiered lookup found the
// operator's compile still queued or running: the morsel ran nothing, and
// the caller runs it on a static engine (tier 0).
using JitMorselResult = StatusOr<std::optional<size_t>>;

// Runs one chunk's prepared plan through a JIT-compiled operator — the
// morsel primitive the scan executor (fts/exec/parallel_scan.h) runs for
// every kJit rung. Looks up the operator for the chunk's chain signature
// at `register_bits` in `cache`. With `wait_for_compile` false a miss
// queues the compile and returns an empty result at once; with it true
// the call blocks on the compile worker (cancellable through `ctx`).
// `out` must have capacity for row_count + kScanOutputSlack positions.
// When `stats` is non-null, cache/compile attribution for this call is
// accumulated into it. Thread-safe: the cache queues each signature once.
// The generated kernel itself is uninterruptible once running.
//
// Chunks whose plan carries compressed-domain stages compile the all-RLE
// run-coiteration operator when every predicate is an RLE stage and the
// chain has no kernel stages; anything else (delta stages, mixed chains)
// returns InvalidArgument so the ladder demotes the morsel to the
// interpreted range path the static engines share. `compressed_stats`
// (nullable) receives the run-classification credit for such chunks —
// pass the scanner's accumulator so EXPLAIN counters cover JIT morsels.
JitMorselResult JitExecuteChunk(
    JitCache& cache, const TableScanner::ChunkPlan& plan, int register_bits,
    bool wait_for_compile, ChunkOffset* out, JitChunkStats* stats = nullptr,
    QueryContext* ctx = nullptr,
    AtomicCompressedStats* compressed_stats = nullptr);

// Aggregate-pushdown morsel primitive: looks up (as JitExecuteChunk does)
// a specialized operator that folds the chunk's aggregate terms at every
// emission site and writes the partials into `accs` (one slot per term,
// reset here). Zone-shortcut chunks are answered without compiling
// anything. Only plain aggregate columns are JIT-eligible; dictionary /
// bit-packed terms return InvalidArgument so the per-morsel ladder demotes
// to the static kernels, and chunks whose value terms fold through the
// positions sink (ChunkPlan::agg_needs_sink) return InvalidArgument too —
// the morsel executor never sends them here. When every term is COUNT
// (SELECT COUNT(*)), the generated loop only popcounts, and an all-RLE
// compressed chain compiles the counting run-coiteration operator
// (crediting `compressed_stats` like JitExecuteChunk); other compressed
// chains return InvalidArgument.
JitMorselResult JitExecuteChunkAggregate(
    JitCache& cache, const TableScanner::ChunkPlan& plan, int register_bits,
    bool wait_for_compile, AggAccumulator* accs,
    JitChunkStats* stats = nullptr, QueryContext* ctx = nullptr,
    AtomicCompressedStats* compressed_stats = nullptr);

}  // namespace fts

#endif  // FTS_JIT_JIT_SCAN_ENGINE_H_
