#include "fts/exec/morsel_loop.h"

#include <algorithm>
#include <memory>

#include "fts/common/string_util.h"
#include "fts/obs/trace.h"

namespace fts {
namespace {

// The pool that runs `morsels` tasks on `threads` workers, or null when
// they run inline on the calling thread (one worker or one morsel). The
// caller's `pool` wins; else TaskPool::Global() when its width equals
// `threads`; else a `threads`-wide pool built into `*local`.
TaskPool* MorselPool(TaskPool* pool, int threads, size_t morsels,
                     std::unique_ptr<TaskPool>* local) {
  if (threads <= 1 || morsels <= 1) return nullptr;
  if (pool != nullptr) return pool;
  if (TaskPool::Global().thread_count() == threads) return &TaskPool::Global();
  *local = std::make_unique<TaskPool>(threads);
  return local->get();
}

// Adds the loop's completed morsels to `sc` and relabels its coverage
// from the running totals. Distinct thread ranks make the "N threads"
// claim auditable; across loops the widest loop's count stands.
void AddMorselCounters(const MorselLoop& loop, ScanCounters* sc) {
  std::vector<int64_t> ranks;
  for (const MorselRecord& morsel : loop.morsels) {
    if (!morsel.ok) continue;
    ++sc->morsels_measurable;
    if (!morsel.counters.valid) continue;
    ++sc->morsels_covered;
    sc->cycles += morsel.counters.cycles;
    sc->instructions += morsel.counters.instructions;
    sc->branches += morsel.counters.branches;
    sc->branch_misses += morsel.counters.branch_misses;
    if (morsel.thread_rank >= 0) ranks.push_back(morsel.thread_rank);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  sc->threads_covered =
      std::max(sc->threads_covered, static_cast<int>(ranks.size()));
  if (sc->morsels_covered == 0) return;
  sc->source = CounterSource::kHardware;
  sc->detail = "perf_event_open";
  sc->coverage = StrFormat(
      "%llu/%llu morsels on %d thread%s",
      static_cast<unsigned long long>(sc->morsels_covered),
      static_cast<unsigned long long>(sc->morsels_measurable),
      sc->threads_covered, sc->threads_covered == 1 ? "" : "s");
  sc->partial = sc->morsels_covered < sc->morsels_measurable;
}

}  // namespace

MorselLoop RunMorselLoop(size_t count, const MorselLoopOptions& options,
                         const std::function<Status(size_t)>& body) {
  MorselLoop loop;
  loop.morsels.resize(count);
  QueryContext* ctx = options.context;
  const bool measure = options.counters != nullptr;
  const auto run = [&](size_t i) {
    MorselRecord& morsel = loop.morsels[i];
    // Morsel boundary = cancellation point: a canceled morsel is
    // discarded before its body runs.
    if (ctx != nullptr) {
      morsel.error = ctx->CheckCancelled();
      if (!morsel.error.ok()) {
        morsel.aborted = true;
        return;
      }
    }
    // perf_event fds are per-thread, so the region runs on the executing
    // worker's own cached counter group.
    CounterRegion region(measure);
    if (measure) {
      morsel.thread_rank = static_cast<int64_t>(obs::CurrentThreadRank());
    }
    morsel.error = body(i);
    morsel.ok = morsel.error.ok();
    if (morsel.ok) {
      morsel.counters = region.Finish();
    } else {
      morsel.aborted = ctx != nullptr && ctx->cancelled();
    }
  };

  const int threads = options.pool != nullptr ? options.pool->thread_count()
                      : options.threads <= 0
                          ? TaskPool::DefaultThreadCount()
                          : std::min(options.threads, kMaxTaskPoolThreads);
  std::unique_ptr<TaskPool> local_pool;
  if (TaskPool* pool = MorselPool(options.pool, threads, count, &local_pool)) {
    loop.worker_count = threads;
    pool->ParallelFor(count, run);
  } else {
    // Undispatched morsels of a canceled loop are discarded here; the
    // pool path reaches the same state by draining aborting morsels.
    for (size_t i = 0; i < count && !(ctx != nullptr && ctx->cancelled());
         ++i) {
      run(i);
    }
  }

  // A morsel that never ran (the inline loop stopped early) has an
  // untouched record — !ok with an OK error — and counts as aborted too.
  loop.cancelled = ctx != nullptr && ctx->cancelled();
  for (const MorselRecord& morsel : loop.morsels) {
    if (morsel.ok) {
      ++loop.completed;
      continue;
    }
    if (morsel.aborted || (loop.cancelled && morsel.error.ok())) {
      ++loop.aborted;
    }
    if (loop.status.ok()) loop.status = morsel.error;
  }
  // The context's status — not whichever morsel noticed first — decides.
  if (loop.cancelled) loop.status = ctx->CancelStatus();
  if (measure) AddMorselCounters(loop, options.counters);
  return loop;
}

MorselLoop RunPositionMorsels(const TableMatches& matches,
                              const MorselLoopOptions& options,
                              const std::function<Status(size_t)>& body) {
  std::vector<size_t> chunks;
  chunks.reserve(matches.chunks.size());
  for (size_t i = 0; i < matches.chunks.size(); ++i) {
    if (!matches.chunks[i].positions.empty()) chunks.push_back(i);
  }
  return RunMorselLoop(chunks.size(), options,
                       [&](size_t m) { return body(chunks[m]); });
}

}  // namespace fts
