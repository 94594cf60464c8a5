#ifndef FTS_SCAN_PROJECTION_GATHER_H_
#define FTS_SCAN_PROJECTION_GATHER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/scan/scan_engine.h"
#include "fts/simd/dispatch.h"
#include "fts/simd/gather_spec.h"
#include "fts/storage/column.h"
#include "fts/storage/columnar_result.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/pos_list.h"
#include "fts/storage/table.h"

namespace fts {

// Accounting for one projection's gather work, aggregated across chunks
// and columns. `rows_by_encoding[e]` counts output cells materialized
// from columns of ColumnEncoding e (a 3-column projection over one chunk
// with n survivors adds 3*n cells split by each column's encoding);
// `kernel_rows` / `typed_rows` split the same total by path — SIMD batch
// kernel vs the typed run/block-aware loops (RLE, delta, narrow
// elements). EXPLAIN ANALYZE renders this under the Project stage.
struct GatherStats {
  uint64_t rows_by_encoding[6] = {0, 0, 0, 0, 0, 0};
  uint64_t kernel_rows = 0;
  uint64_t typed_rows = 0;
  uint64_t delta_blocks_decoded = 0;

  void Merge(const GatherStats& o) {
    for (int e = 0; e < 6; ++e) rows_by_encoding[e] += o.rows_by_encoding[e];
    kernel_rows += o.kernel_rows;
    typed_rows += o.typed_rows;
    delta_blocks_decoded += o.delta_blocks_decoded;
  }
};

// Batch-gather kernel matched to the scan engine that produced the
// positions. The SISD engines gather with the scalar kernel.
FusedKernelKind GatherKernelFor(ScanEngine engine);

// Decode state one column carries across consecutive calls over the same
// chunk's ascending positions (the aggregate positions sink decodes a
// chunk's survivors in small batches): the RLE run cursor and the last
// delta block decoded. A fresh cursor starts at the chunk's first run and
// holds no block.
struct GatherCursor {
  size_t run = 0;
  size_t block = static_cast<size_t>(-1);
  alignas(8) std::byte block_values[kDeltaBlockRows * sizeof(uint64_t)];
};

// Late-materialization projector: turns per-chunk survivor position lists
// into dense typed column vectors (ColumnarResult) without boxing a
// single Value. Prepared once per query; GatherChunk is then called per
// chunk — serially or from morsel workers, since every call writes a
// disjoint row slice of the output buffers.
//
// Per column-chunk, Prepare resolves one of:
//   - a SIMD batch-gather kernel term (plain/dictionary/bit-packed/FoR
//     columns with 4- or 8-byte elements) executed by the GatherFn the
//     caller selected from the degradation ladder;
//   - a typed scalar loop for 1/2-byte elements (still unboxed);
//   - a run-aware tandem walk for RLE (ascending positions advance a run
//     cursor — no per-row binary search);
//   - a block-aware walk for delta (decode only blocks that contain
//     survivors, skip the rest).
class ProjectionGatherer {
 public:
  // `columns` are table column indexes, in output order. Never fails for
  // valid indexes; returns a gatherer whose output schema mirrors the
  // projected columns' declared types.
  static StatusOr<ProjectionGatherer> Prepare(TablePtr table,
                                              std::vector<size_t> columns);

  // Declares the output columns (projection names + declared types) on
  // `out`. Caller then calls out->SetRowCount(total_matches) and hands
  // out disjoint slices to GatherChunk.
  void InitResult(const std::vector<std::string>& names,
                  ColumnarResult* out) const;

  // Materializes the `n` ascending survivor offsets of `chunk_id` into
  // rows [dst_offset, dst_offset + n) of `out`. `fn` is the batch-gather
  // kernel for kernel-eligible columns (from GetGatherKernel); the typed
  // paths ignore it. Thread-safe across disjoint (chunk, slice) pairs.
  void GatherChunk(GatherFn fn, ChunkId chunk_id,
                   const ChunkOffset* positions, size_t n,
                   ColumnarResult* out, size_t dst_offset,
                   GatherStats* stats) const;

  // Gathers a single column (by output position) for the top-K ORDER BY
  // path: sort keys first, remaining columns only for the selected rows.
  void GatherChunkColumn(GatherFn fn, ChunkId chunk_id, size_t out_column,
                         const ChunkOffset* positions, size_t n,
                         ColumnarResult* out, size_t dst_offset,
                         GatherStats* stats) const;

  // Decodes column `out_column` at the `n` ascending offsets into `dst`, a
  // dense array of output_type(out_column) elements. `cursor` carries the
  // run/block state from the previous call over the same chunk, so a
  // chunk's positions may arrive in consecutive ascending batches.
  void GatherColumnInto(GatherFn fn, ChunkId chunk_id, size_t out_column,
                        const ChunkOffset* positions, size_t n, void* dst,
                        GatherCursor* cursor, GatherStats* stats) const;

  size_t column_count() const { return columns_.size(); }
  DataType output_type(size_t c) const { return output_types_[c]; }

 private:
  enum class Path : uint8_t { kKernel, kTyped, kRle, kDelta };

  struct ColumnChunkPlan {
    Path path = Path::kTyped;
    GatherTerm term;                      // kKernel only.
    const BaseColumn* column = nullptr;   // Owned by the table's chunk.
    ColumnEncoding encoding = ColumnEncoding::kPlain;
  };

  ProjectionGatherer() = default;

  TablePtr table_;  // Keeps every chunk (and thus column data) alive.
  std::vector<size_t> columns_;
  std::vector<DataType> output_types_;
  // chunk-major: plans_[chunk_id * columns_.size() + c].
  std::vector<ColumnChunkPlan> plans_;
};

}  // namespace fts

#endif  // FTS_SCAN_PROJECTION_GATHER_H_
