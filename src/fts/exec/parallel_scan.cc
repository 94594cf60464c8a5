#include "fts/exec/parallel_scan.h"

#include <algorithm>
#include <optional>

#include "fts/cost/cost_profile.h"
#include "fts/exec/morsel_loop.h"
#include "fts/jit/jit_scan_engine.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"
#include "fts/simd/scan_stage.h"

namespace fts {
namespace {

// What a morsel computes: a materialized position list, or folded
// aggregate partials (aggregate pushdown; COUNT(*) is a one-term fold).
enum class MorselMode { kMaterialize, kAggregate };

// What one scan morsel produces beyond its MorselRecord. Each task writes
// only its own slot of a preallocated vector, so the scheduler needs no
// cross-task locking and the merge is deterministic by construction.
struct MorselOutcome {
  EngineChoice executed;  // Rung that ran when the morsel completed.
  size_t rung_index = 0;  // Ladder depth of `executed` (0 = requested).
  // `executed` is a per-chunk choice, not a ladder rung: the cost model's
  // pick (DESIGN.md §14), the static engine that runs a chunk no JIT
  // operator covers (compressed-domain stages or the positions fold), or
  // tier 0 of a JIT rung whose compile has not landed. A choice is not a
  // degradation.
  bool adapted = false;
  // The cost model picked an engine other than the requested rung, and the
  // pick ran (one of the `adapted` cases).
  bool model_switched = false;
  std::vector<EngineAttempt> attempts;
  PosList positions;  // Materialize mode.
  uint64_t count = 0;  // Aggregate mode: the match count.
  std::vector<AggAccumulator> aggs;  // Aggregate mode: per-term partials.
  // What this morsel's ladder walk did: compressed-domain counters, the
  // fold taken, JIT cache/compile attribution.
  ChunkStats stats;
};

// Copies what Prepare fixed into the report — pruning, the per-stage
// encoding mix and the cost-model state — and counts the scan in the
// metrics registry. Called once per scan.
void FillPreparedReport(const TableScanner& scanner, ExecutionReport* report) {
  const TableScanner::PruningSummary& pruning = scanner.pruning();
  report->chunks_total = pruning.chunks_total;
  report->chunks_pruned = pruning.chunks_pruned;
  report->stages_dropped = pruning.stages_dropped;
  report->bytes_skipped = pruning.bytes_skipped;
  uint64_t rows_scanned = 0;
  for (const TableScanner::ChunkPlan& plan : scanner.chunk_plans()) {
    if (!plan.impossible) rows_scanned += plan.row_count;
  }
  report->rows_scanned = rows_scanned;
  const std::array<uint64_t, 6>& mix = scanner.stage_encodings();
  std::copy(mix.begin(), mix.end(), report->stage_encodings);
  report->model_active = scanner.model_active();
  report->adaptive_engines = scanner.adaptive();
  report->chunks_reordered = scanner.chunks_reordered();
  report->est_rows = scanner.est_rows();
  // RunMorsels fills this exactly once per scan, so this is also where
  // pruning lands in the process-lifetime registry.
  const obs::EngineMetrics& metrics = obs::Metrics();
  metrics.scans_total->Increment();
  if (pruning.chunks_pruned > 0) {
    metrics.chunks_pruned_total->Add(pruning.chunks_pruned);
  }
  if (pruning.stages_dropped > 0) {
    metrics.stages_dropped_total->Add(pruning.stages_dropped);
  }
}

// The report's one write site for the morsels' counters: adds one
// morsel's ChunkStats and cost-model switch.
void MergeOutcome(const MorselOutcome& outcome, ExecutionReport* report) {
  const ChunkStats& stats = outcome.stats;
  report->rle_runs_classified += stats.compressed.rle_runs_classified;
  report->rle_runs_skipped += stats.compressed.rle_runs_skipped;
  report->delta_blocks_pruned += stats.compressed.delta_blocks_pruned;
  report->delta_blocks_decoded += stats.compressed.delta_blocks_decoded;
  report->agg_kernel_chunks += stats.agg_kernel_chunks;
  report->agg_positions_chunks += stats.agg_positions_chunks;
  report->agg_delta_blocks += stats.agg_delta_blocks;
  report->jit_cache_hits += stats.jit_cache_hits;
  report->jit_cache_misses += stats.jit_compiles_queued;
  report->jit_compile_millis += stats.jit_compile_millis;
  if (outcome.model_switched) ++report->adaptive_engine_switches;
}

std::vector<EngineChoice> RungsFor(const ParallelScanOptions& options) {
  if (options.fallback == FallbackPolicy::kLadder) {
    return DegradationLadder(options.requested.engine,
                             options.requested.jit_register_bits);
  }
  return {options.requested};
}

// Walks the ladder for one chunk — the only ladder walk in the engine —
// and returns the last rung's failure when no rung ran. A kUnavailable JIT
// failure (no AVX-512, no usable compiler) dooms every JIT width for this
// morsel, so skip straight to the precompiled rungs instead of burning a
// compile attempt per width.
//
// Tiered JIT: unless `wait_for_compile`, a JIT rung whose operator is not
// compiled yet queues the compile and runs this morsel on the best static
// fused engine (tier 0). Every morsel asks the cache again, so the scan
// switches to the compiled operator at the first morsel boundary after
// the compile lands.
Status RunMorsel(const TableScanner& scanner, JitCache& cache,
                 const std::vector<EngineChoice>& rungs, bool wait_for_compile,
                 MorselMode mode, ChunkId chunk_id, QueryContext* ctx,
                 MorselOutcome* out) {
  const TableScanner::ChunkPlan& plan = scanner.chunk_plans()[chunk_id];
  // The morsel span covers the whole ladder walk; the chunk-execution
  // spans underneath it (scan_chunk) nest inside on the worker's track.
  obs::TraceSpan span("morsel", "exec");
  if (span.active()) {
    span.AddArg("chunk", static_cast<uint64_t>(chunk_id));
    span.AddArg("rows", static_cast<uint64_t>(plan.row_count));
  }
  // Thread-local output list, reused across rungs and moved into the
  // outcome slot on success. Charged against the query's memory budget
  // while the morsel holds it: a budget overflow is a typed morsel
  // failure (kResourceExhausted), not a process abort.
  const bool fold = mode == MorselMode::kAggregate;
  ScopedMemoryReservation reservation;
  PosList buffer;
  if (!fold) {
    FTS_RETURN_IF_ERROR(reservation.Reserve(
        ctx, static_cast<uint64_t>(plan.row_count + kScanOutputSlack) *
                 sizeof(ChunkOffset)));
    buffer.resize(plan.row_count + kScanOutputSlack);
  }
  std::vector<AggAccumulator> aggs;
  if (fold) aggs.resize(scanner.num_agg_terms());

  // Per-morsel engine adaptation (DESIGN.md §14): when the scan opted in,
  // ask the cost model whether this chunk should run on a cheaper engine
  // than the requested rung (near-empty / near-full chunks often should).
  // The model's pick is prepended as an extra rung: if it somehow fails,
  // the walk falls through to the original ladder unchanged.
  std::vector<EngineChoice> walk;
  const std::vector<EngineChoice>* walk_rungs = &rungs;
  bool adapted_first = false;
  if (scanner.adaptive() && !rungs.empty()) {
    const EngineChoice adapted = scanner.AdaptEngine(rungs.front(), chunk_id);
    if (!(adapted == rungs.front())) {
      adapted_first = true;
      walk.reserve(rungs.size() + 1);
      walk.push_back(adapted);
      walk.insert(walk.end(), rungs.begin(), rungs.end());
      walk_rungs = &walk;
    }
  }

  Status error;
  bool jit_unavailable = false;
  for (size_t r = 0; r < walk_rungs->size(); ++r) {
    EngineChoice choice = (*walk_rungs)[r];
    // No generated operator covers a compressed-domain chunk (its range
    // path works per run or block, so there is no per-row decision to
    // compile) or a chunk whose terms fold through the positions sink: a
    // JIT rung runs it on the best static engine, without a JIT attempt.
    const bool static_choice =
        choice.engine == ScanEngine::kJit &&
        (!plan.compressed.empty() || (fold && plan.agg_positions));
    if (static_choice) choice = {cost::BestFusedEngine(), 0};
    // Rung boundary = cancellation point: a deadline firing mid-ladder
    // aborts the walk instead of demoting — lower rungs of a dead query
    // cannot help. Checked via cancelled() rather than a rung's status
    // code, so a compile that itself timed out (kDeadlineExceeded without
    // a canceled context) still demotes to a precompiled rung.
    if (ctx != nullptr && ctx->cancelled()) return ctx->CancelStatus();
    if (choice.engine == ScanEngine::kJit && jit_unavailable) {
      out->attempts.push_back({choice, error});
      continue;
    }

    bool tier0 = false;
    const StatusOr<size_t> result = [&]() -> StatusOr<size_t> {
      if (choice.engine == ScanEngine::kJit) {
        FTS_ASSIGN_OR_RETURN(
            const std::optional<size_t> count,
            fold ? JitExecuteChunkAggregate(
                       cache, plan, choice.jit_register_bits,
                       wait_for_compile, aggs.data(), &out->stats, ctx)
                 : JitExecuteChunk(cache, plan, choice.jit_register_bits,
                                   wait_for_compile, buffer.data(),
                                   &out->stats, ctx));
        if (count.has_value()) return *count;
        tier0 = true;
        choice = {cost::BestFusedEngine(), 0};
      }
      return fold ? scanner.ExecuteChunkAggregate(choice.engine, chunk_id,
                                                  aggs.data(), &out->stats)
                  : scanner.ExecuteChunk(choice.engine, chunk_id,
                                         buffer.data(), &out->stats);
    }();

    if (result.ok()) {
      if (fold) {
        out->count = *result;
        out->aggs = std::move(aggs);
      } else {
        buffer.resize(*result);
        out->positions = std::move(buffer);
      }
      out->attempts.push_back({choice, Status::Ok()});
      out->executed = choice;
      // Ladder depth stays relative to the ORIGINAL rungs so the
      // deepest-rung report logic is unaffected by the prepended pick.
      out->rung_index = adapted_first ? (r == 0 ? 0 : r - 1) : r;
      // Tier 0 of the requested rung is a choice; tier 0 of a lower JIT
      // width ran because the requested rung failed.
      out->model_switched = adapted_first && r == 0;
      out->adapted = out->model_switched || static_choice ||
                     (tier0 && out->rung_index == 0);
      if (span.active()) {
        span.AddArg("engine", choice.ToString());
        span.AddArg("matches", uint64_t{*result});
      }
      return Status::Ok();
    }
    error = result.status();
    out->attempts.push_back({choice, error});
    jit_unavailable = jit_unavailable ||
                      (choice.engine == ScanEngine::kJit &&
                       error.code() == StatusCode::kUnavailable);
  }
  return error;
}

// Schedules every runnable chunk as one morsel of the morsel loop and
// merges the outcomes into the report's execution fields. Chunks the
// prepared scanner proved impossible (dictionary translation or zone-map
// bounds) and 0-row chunks are excluded BEFORE morsel creation, so pruned
// chunks cost no scheduling and no ladder walk — their outcome slots
// simply stay empty, which the merge reads as zero matches.
Status ScheduleMorsels(const TableScanner& scanner,
                       const ParallelScanOptions& options, MorselMode mode,
                       std::vector<MorselOutcome>* outcomes,
                       ExecutionReport* report) {
  QueryContext* ctx =
      options.context != nullptr ? options.context : scanner.context();
  if (ctx != nullptr) report->deadline_millis = ctx->deadline_millis();

  JitCache& cache =
      options.cache != nullptr ? *options.cache : GlobalJitCache();
  const std::vector<EngineChoice> rungs = RungsFor(options);
  // Strict means "this engine or fail": only it waits for a JIT compile.
  const bool wait_for_compile = options.fallback == FallbackPolicy::kStrict;
  const size_t chunk_count = scanner.chunk_plans().size();

  outcomes->clear();
  outcomes->resize(chunk_count);

  std::vector<ChunkId> runnable;
  runnable.reserve(chunk_count);
  for (ChunkId chunk_id = 0; chunk_id < chunk_count; ++chunk_id) {
    const TableScanner::ChunkPlan& plan = scanner.chunk_plans()[chunk_id];
    if (!plan.impossible && plan.row_count > 0) runnable.push_back(chunk_id);
  }
  if (runnable.empty()) {
    report->worker_count = 1;
    report->RecordSuccess(options.requested);
    return Status::Ok();
  }

  const MorselLoop loop = RunMorselLoop(
      runnable.size(),
      {options.threads, options.pool, ctx,
       options.collect_counters ? &report->counters : nullptr},
      [&](size_t i) {
        return RunMorsel(scanner, cache, rungs, wait_for_compile, mode,
                         runnable[i], ctx, &(*outcomes)[runnable[i]]);
      });

  report->worker_count = loop.worker_count;
  report->morsel_count = runnable.size();
  obs::Metrics().morsels_total->Add(runnable.size());
  // Before any early return, so a failed or canceled scan reports the work
  // its morsels did.
  for (const ChunkId chunk_id : runnable) {
    MergeOutcome((*outcomes)[chunk_id], report);
  }
  report->morsels_completed = loop.completed;
  report->morsels_aborted = loop.aborted;
  if (loop.aborted > 0) obs::Metrics().morsels_aborted_total->Add(loop.aborted);
  if (loop.cancelled) return loop.status;
  if (!loop.status.ok()) {
    // The first failed morsel in chunk order decides the status and the
    // ladder trail.
    for (size_t i = 0; i < runnable.size(); ++i) {
      if (loop.morsels[i].ok) continue;
      report->attempts = (*outcomes)[runnable[i]].attempts;
      break;
    }
    return loop.status;
  }

  // The deepest rung any morsel reached defines the scan-level ladder
  // trail; per-morsel decisions stay visible in morsel_choices (one entry
  // per *runnable* chunk, in chunk order — pruned chunks never chose an
  // engine). Measured morsels are also attributed to their engine.
  ChunkId deepest = runnable.front();
  report->morsel_choices.reserve(runnable.size());
  for (size_t i = 0; i < runnable.size(); ++i) {
    const MorselOutcome& outcome = (*outcomes)[runnable[i]];
    if (outcome.rung_index > (*outcomes)[deepest].rung_index) {
      deepest = runnable[i];
    }
    report->morsel_choices.push_back(outcome.executed);
    const CounterDelta& delta = loop.morsels[i].counters;
    if (delta.valid) {
      report->AttributeEngineCounters(outcome.executed, delta.cycles,
                                      delta.instructions, delta.branches,
                                      delta.branch_misses);
    }
  }
  report->attempts = (*outcomes)[deepest].attempts;
  report->executed = (*outcomes)[deepest].executed;
  // A cost-model engine pick is a choice, not a degradation: only a rung
  // that ran because an earlier one failed counts as degraded.
  report->degraded = !(report->executed == report->requested) &&
                     !(*outcomes)[deepest].adapted;
  return Status::Ok();
}

// Fills the report's Prepare-time fields, then runs the morsels, whose
// outcomes ScheduleMorsels merges into it.
Status RunMorsels(const TableScanner& scanner,
                  const ParallelScanOptions& options, MorselMode mode,
                  std::vector<MorselOutcome>* outcomes,
                  ExecutionReport* report) {
  ExecutionReport local;
  if (report == nullptr) report = &local;
  report->requested = options.requested;
  FillPreparedReport(scanner, report);
  return ScheduleMorsels(scanner, options, mode, outcomes, report);
}

}  // namespace

StatusOr<TableMatches> ExecuteParallelScan(const TableScanner& scanner,
                                           const ParallelScanOptions& options,
                                           ExecutionReport* report) {
  std::vector<MorselOutcome> outcomes;
  FTS_RETURN_IF_ERROR(RunMorsels(scanner, options, MorselMode::kMaterialize,
                                 &outcomes, report));
  TableMatches result;
  result.chunks.reserve(outcomes.size());
  for (ChunkId chunk_id = 0; chunk_id < outcomes.size(); ++chunk_id) {
    ChunkMatches matches;
    matches.chunk_id = chunk_id;
    matches.positions = std::move(outcomes[chunk_id].positions);
    result.chunks.push_back(std::move(matches));
  }
  return result;
}

StatusOr<uint64_t> ExecuteParallelScanCount(const TableScanner& scanner,
                                            const ParallelScanOptions& options,
                                            ExecutionReport* report) {
  FTS_ASSIGN_OR_RETURN(const TableMatches matches,
                       ExecuteParallelScan(scanner, options, report));
  return matches.TotalMatches();
}

StatusOr<TableScanner::AggResult> ExecuteParallelScanAggregate(
    const TableScanner& scanner, const ParallelScanOptions& options,
    ExecutionReport* report) {
  if (scanner.num_agg_terms() == 0) {
    return Status::InvalidArgument(
        "scan spec carries no aggregates; use ExecuteParallelScan");
  }
  std::vector<MorselOutcome> outcomes;
  FTS_RETURN_IF_ERROR(RunMorsels(scanner, options, MorselMode::kAggregate,
                                 &outcomes, report));
  // Merge partials in chunk order: combined with each term's fixed
  // fold order inside a chunk, the result is byte-identical for every
  // thread count and scheduling interleave (integer sums are exact mod
  // 2^64; float folds happen in one deterministic sequence per engine).
  TableScanner::AggResult result;
  result.accumulators.resize(scanner.num_agg_terms());
  for (const MorselOutcome& outcome : outcomes) {
    if (outcome.aggs.empty()) continue;  // Pruned or empty chunk.
    result.matched += outcome.count;
    for (size_t i = 0; i < result.accumulators.size(); ++i) {
      result.accumulators[i].Merge(outcome.aggs[i]);
    }
  }
  return result;
}

StatusOr<TableMatches> ExecuteParallelRefine(
    const TableScanner& scanner, const TableMatches& input,
    const ParallelScanOptions& options, ExecutionReport* report) {
  TableMatches refined;
  refined.chunks.resize(input.chunks.size());
  for (size_t i = 0; i < input.chunks.size(); ++i) {
    refined.chunks[i].chunk_id = input.chunks[i].chunk_id;
  }
  const MorselLoop loop = RunPositionMorsels(
      input,
      {options.threads, options.pool,
       options.context != nullptr ? options.context : scanner.context(),
       options.collect_counters && report != nullptr ? &report->counters
                                                      : nullptr},
      [&](size_t i) {
        const ChunkMatches& in = input.chunks[i];
        PosList& out = refined.chunks[i].positions;
        out.resize(in.positions.size());
        out.resize(scanner.RefineChunk(in.chunk_id, in.positions.data(),
                                       in.positions.size(), out.data()));
        return Status::Ok();
      });
  FTS_RETURN_IF_ERROR(loop.status);
  return refined;
}

}  // namespace fts
