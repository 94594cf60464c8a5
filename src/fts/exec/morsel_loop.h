#ifndef FTS_EXEC_MORSEL_LOOP_H_
#define FTS_EXEC_MORSEL_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fts/common/query_context.h"
#include "fts/common/status.h"
#include "fts/exec/task_pool.h"
#include "fts/perf/counter_attribution.h"
#include "fts/scan/scan_engine.h"
#include "fts/storage/pos_list.h"

namespace fts {

// The one morsel dispatch of the engine. A morsel is an input — a whole
// chunk, or one chunk's position list — times a sink: positions (the scan
// and refine steps), aggregate partials (fold) or an output slice
// (gather). Every per-chunk operator runs its morsels through
// RunMorselLoop, which owns scheduling, cancellation, the failure status
// and counter measurement; the operator owns only its per-morsel output
// slots, merged in morsel (= chunk) order, so every result is
// byte-identical at every thread count.
struct MorselLoopOptions {
  // Worker threads: 0 = TaskPool::DefaultThreadCount(), 1 = inline on the
  // calling thread, N > 1 = N workers. Ignored when `pool` is set.
  int threads = 0;
  // Pool to schedule on; null = TaskPool::Global() when its width matches
  // the resolved thread count, else a loop-local pool.
  TaskPool* pool = nullptr;
  // Checked at every morsel boundary: a canceled loop dispatches no new
  // morsels, in-flight morsels run to their boundary, and the loop
  // returns the context's cancel status. Null runs without checks.
  QueryContext* context = nullptr;
  // Non-null: every morsel runs inside a CounterRegion on its executing
  // thread, and the loop adds its completed morsels here: each one is
  // measurable, and covered when its region produced a valid delta. The
  // coverage label and PARTIAL flag are rewritten from the running totals,
  // so the scan and refine steps of one query share one tally.
  ScanCounters* counters = nullptr;
};

// What the loop recorded for one morsel.
struct MorselRecord {
  bool ok = false;       // The body ran and returned OK.
  bool aborted = false;  // Discarded at a cancellation point.
  Status error;          // The body's failure, or the cancel status.
  // PMU delta of the body on its executing thread (invalid when
  // unmeasured) and that thread's trace rank.
  CounterDelta counters;
  int64_t thread_rank = -1;
};

struct MorselLoop {
  std::vector<MorselRecord> morsels;  // One per morsel, in morsel order.
  int worker_count = 1;               // 1 = the morsels ran inline.
  // Partial-abort accounting: completed morsels ran to their end; aborted
  // ones hit a cancellation point or were never dispatched.
  size_t completed = 0;
  size_t aborted = 0;
  bool cancelled = false;
  // The context's cancel status when the loop was canceled, else the
  // first failed morsel's error in morsel order, else OK — the same
  // whatever the scheduling.
  Status status;
};

// Runs body(i) for every morsel i in [0, count) and returns the loop's
// record. The body writes only its own output slot.
MorselLoop RunMorselLoop(size_t count, const MorselLoopOptions& options,
                         const std::function<Status(size_t)>& body);

// Position-list input: one morsel per chunk of `matches` that holds
// survivors. The body receives the chunk's index in `matches.chunks`.
MorselLoop RunPositionMorsels(const TableMatches& matches,
                              const MorselLoopOptions& options,
                              const std::function<Status(size_t)>& body);

}  // namespace fts

#endif  // FTS_EXEC_MORSEL_LOOP_H_
