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
// When `stats` is non-null, the call adds its cache/compile attribution
// to it. Thread-safe: the cache queues each signature once.
// The generated kernel itself is uninterruptible once running.
//
// No generated operator covers a chunk whose plan carries
// compressed-domain (RLE/delta) stages: the morsel executor runs such
// chunks on a static engine's range path, and a compressed plan that
// reaches this call returns InvalidArgument.
JitMorselResult JitExecuteChunk(JitCache& cache,
                                const TableScanner::ChunkPlan& plan,
                                int register_bits, bool wait_for_compile,
                                ChunkOffset* out, ChunkStats* stats = nullptr,
                                QueryContext* ctx = nullptr);

// Aggregate-pushdown morsel primitive: looks up (as JitExecuteChunk does)
// a specialized operator that folds the chunk's aggregate terms at every
// emission site and writes the partials into `accs` (one slot per term,
// reset here). Zone-shortcut chunks are answered without compiling
// anything. When every term is COUNT (SELECT COUNT(*)), the generated
// loop only popcounts. Only plain aggregate columns are JIT-eligible;
// dictionary / bit-packed terms return InvalidArgument so the per-morsel
// ladder demotes to the static kernels. Chunks the morsel executor never
// sends here — positions-fold chunks (ChunkPlan::agg_positions) and
// compressed-domain chunks — return InvalidArgument too. A chunk it folds
// counts as a kernel fold in `stats`.
JitMorselResult JitExecuteChunkAggregate(
    JitCache& cache, const TableScanner::ChunkPlan& plan, int register_bits,
    bool wait_for_compile, AggAccumulator* accs, ChunkStats* stats = nullptr,
    QueryContext* ctx = nullptr);

}  // namespace fts

#endif  // FTS_JIT_JIT_SCAN_ENGINE_H_
