#include "fts/exec/parallel_project.h"

#include "fts/exec/morsel_loop.h"
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

  std::vector<GatherStats> slots(chunk_count);
  const MorselLoop loop = RunPositionMorsels(
      matches, {options.threads, options.pool, ctx, nullptr}, [&](size_t i) {
        const ChunkMatches& chunk = matches.chunks[i];
        gatherer.GatherChunk(fn, chunk.chunk_id, chunk.positions.data(),
                             chunk.positions.size(), out, offsets[i],
                             &slots[i]);
        return Status::Ok();
      });
  if (!loop.status.ok()) {
    out->Clear();
    return loop.status;
  }
  for (const GatherStats& slot : slots) stats->Merge(slot);
  return Status::Ok();
}

StatusOr<TableScanner::AggResult> ExecuteParallelFold(
    const PositionsFoldSink& sink, const TableMatches& matches,
    const ParallelProjectOptions& options, GatherStats* stats) {
  FTS_ASSIGN_OR_RETURN(const GatherFn fn, GetGatherKernel(options.kernel));
  std::vector<std::vector<AggAccumulator>> partials(matches.chunks.size());
  std::vector<GatherStats> slots(matches.chunks.size());
  const MorselLoop loop = RunPositionMorsels(
      matches, {options.threads, options.pool, options.context, nullptr},
      [&](size_t i) {
        const ChunkMatches& chunk = matches.chunks[i];
        partials[i].resize(sink.num_terms());
        sink.Fold(fn, chunk.chunk_id, chunk.positions.data(),
                  chunk.positions.size(), partials[i].data(), &slots[i]);
        return Status::Ok();
      });
  FTS_RETURN_IF_ERROR(loop.status);
  TableScanner::AggResult result;
  result.accumulators.resize(sink.num_terms());
  result.matched = matches.TotalMatches();
  for (size_t i = 0; i < partials.size(); ++i) {
    if (partials[i].empty()) continue;  // No survivors in this chunk.
    for (size_t t = 0; t < partials[i].size(); ++t) {
      result.accumulators[t].Merge(partials[i][t]);
    }
    stats->Merge(slots[i]);
  }
  return result;
}

}  // namespace fts
