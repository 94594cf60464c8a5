#ifndef FTS_EXEC_PARALLEL_PROJECT_H_
#define FTS_EXEC_PARALLEL_PROJECT_H_

#include <string>
#include <vector>

#include "fts/common/query_context.h"
#include "fts/common/status.h"
#include "fts/exec/task_pool.h"
#include "fts/scan/positions_fold.h"
#include "fts/scan/projection_gather.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/columnar_result.h"
#include "fts/storage/pos_list.h"

namespace fts {

// The position-list sinks of the morsel loop (fts/exec/morsel_loop.h):
// each chunk's survivor list is one morsel. A gather morsel writes the
// chunk's rows into its slice of the shared column buffers — the rows of
// chunk i start at the prefix sum of the earlier chunks' match counts —
// so assembly is chunk-ordered by construction with no merge step. A fold
// morsel folds the chunk into its own aggregate partials, merged in chunk
// order. Both are byte-identical for every thread count.
struct ParallelProjectOptions {
  // Batch-gather kernel for kernel-eligible column-chunks (resolved from
  // the scan's executed engine by the plan executor). The fold fails when
  // it is unavailable on this CPU.
  FusedKernelKind kernel = FusedKernelKind::kScalar;
  // Worker threads: 0 = TaskPool::DefaultThreadCount(), 1 = inline.
  int threads = 0;
  // Pool to schedule on; null = TaskPool::Global() when its width matches
  // the resolved thread count, else a local pool.
  TaskPool* pool = nullptr;
  // Cancellation/memory budget; checked at every morsel boundary.
  QueryContext* context = nullptr;
};

// Gathers every chunk of `matches` through `gatherer` into `out`
// (InitResult + SetRowCount + per-chunk GatherChunk). `stats` receives
// the merged per-encoding gather accounting. On cancellation the partial
// output is cleared and the context's cancel status returned.
Status ExecuteParallelGather(const ProjectionGatherer& gatherer,
                             const TableMatches& matches,
                             const std::vector<std::string>& names,
                             const ParallelProjectOptions& options,
                             ColumnarResult* out, GatherStats* stats);

// Folds `sink`'s terms over every chunk of `matches` (the refined position
// lists of a plan that did not push its aggregates down). `stats`
// receives the merged decode accounting.
StatusOr<TableScanner::AggResult> ExecuteParallelFold(
    const PositionsFoldSink& sink, const TableMatches& matches,
    const ParallelProjectOptions& options, GatherStats* stats);

}  // namespace fts

#endif  // FTS_EXEC_PARALLEL_PROJECT_H_
