#include "fts/exec/parallel_project.h"

#include <atomic>
#include <memory>

#include "fts/simd/gather_kernels.h"

namespace fts {

Status ExecuteParallelGather(const ProjectionGatherer& gatherer,
                             const TableMatches& matches,
                             const std::vector<std::string>& names,
                             const ParallelProjectOptions& options,
                             ColumnarResult* out, GatherStats* stats) {
  // Resolve the gather kernel once per query; an unavailable kind demotes
  // straight to the scalar reference (same values, same layout).
  GatherFn fn = &GatherScalar;
  if (StatusOr<GatherFn> kernel = GetGatherKernel(options.kernel);
      kernel.ok()) {
    fn = kernel.value();
  }

  const size_t chunk_count = matches.chunks.size();
  std::vector<size_t> offsets(chunk_count + 1, 0);
  for (size_t i = 0; i < chunk_count; ++i) {
    offsets[i + 1] = offsets[i] + matches.chunks[i].positions.size();
  }
  const size_t total_rows = offsets[chunk_count];

  gatherer.InitResult(names, out);
  QueryContext* ctx = options.context;
  ScopedMemoryReservation reservation;
  if (ctx != nullptr) {
    uint64_t bytes = 0;
    for (size_t c = 0; c < gatherer.column_count(); ++c) {
      bytes += total_rows * DataTypeSize(gatherer.output_type(c));
    }
    if (Status reserve = reservation.Reserve(ctx, bytes); !reserve.ok()) {
      return reserve;
    }
  }
  out->SetRowCount(total_rows);
  if (total_rows == 0) return Status::Ok();

  const auto gather_chunk = [&](size_t i, GatherStats* slot_stats) {
    const ChunkMatches& chunk = matches.chunks[i];
    gatherer.GatherChunk(fn, chunk.chunk_id, chunk.positions.data(),
                         chunk.positions.size(), out, offsets[i],
                         slot_stats);
  };

  const int threads =
      options.threads > 0 ? options.threads : TaskPool::DefaultThreadCount();
  std::unique_ptr<TaskPool> local_pool;
  TaskPool* const pool =
      MorselPool(options.pool, threads, chunk_count, &local_pool);
  if (pool == nullptr) {
    for (size_t i = 0; i < chunk_count; ++i) {
      if (ctx != nullptr) {
        if (Status cancel = ctx->CheckCancelled(); !cancel.ok()) {
          out->Clear();
          return cancel;
        }
      }
      gather_chunk(i, stats);
    }
    return Status::Ok();
  }

  // Parallel path: per-morsel stats slots merged after the drain (the
  // counters are additive, but slots keep the workers write-disjoint).
  std::vector<GatherStats> slots(chunk_count);
  std::atomic<bool> stop{false};
  const auto body = [&](size_t i) {
    if (stop.load(std::memory_order_relaxed)) return;
    if (ctx != nullptr && ctx->cancelled()) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    gather_chunk(i, &slots[i]);
  };

  pool->ParallelFor(chunk_count, body);

  if (ctx != nullptr) {
    if (Status cancel = ctx->CheckCancelled(); !cancel.ok()) {
      out->Clear();
      return cancel;
    }
  }
  for (const GatherStats& slot : slots) stats->Merge(slot);
  return Status::Ok();
}

}  // namespace fts
