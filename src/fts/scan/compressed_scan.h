#ifndef FTS_SCAN_COMPRESSED_SCAN_H_
#define FTS_SCAN_COMPRESSED_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fts/simd/scan_stage.h"
#include "fts/storage/column.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/value.h"

namespace fts {

// One predicate evaluated in the compressed domain — a conjunct whose
// column is RLE or delta encoded, where per-row kernel evaluation would
// first have to decode. Instead each stage produces the exact set of
// qualifying rows as sorted, coalesced position ranges:
//
//   RLE:   classify every run value once; a qualifying run contributes its
//          whole [start, end) range, so work is O(runs), not O(rows).
//   delta: classify each block's min/max; kAll blocks contribute their
//          range and kNone blocks are skipped without touching the packed
//          stream; only undecided blocks are prefix-reconstructed (into a
//          stack buffer) and tested row-wise.
//
// Stage range lists are intersected, then any remaining kernel stages of
// the same chunk refine the candidates row-wise via EvaluateStageAtRow.
// Every engine routes through this same code for such chunks, the JIT
// rungs included (the work is per run or block, so generated code would
// have no per-row decision to specialize), and results are byte-identical
// across SISD/AVX2/AVX-512/JIT/threads by construction. A COUNT-only
// aggregate counts the ranges instead of materializing their rows.
struct CompressedScanStage {
  const BaseColumn* column = nullptr;
  CompareOp op = CompareOp::kEq;
  Value value;  // Already cast to the column's data type by Prepare().
};

// Half-open row range [first, second).
using RowRange = std::pair<uint32_t, uint32_t>;

// Work counters for one chunk execution (a field of ChunkStats,
// fts/scan/table_scan.h).
struct CompressedScanStats {
  uint64_t rle_runs_classified = 0;
  uint64_t rle_runs_skipped = 0;  // Runs whose whole range was disproved.
  uint64_t delta_blocks_pruned = 0;   // Blocks answered from min/max.
  uint64_t delta_blocks_decoded = 0;  // Blocks prefix-reconstructed.
};

// Exact qualifying ranges for one compressed stage, ascending and
// coalesced. `row_count` is the chunk's row count (= column size).
std::vector<RowRange> BuildCompressedStageRanges(
    const CompressedScanStage& stage, CompressedScanStats* stats);

// Decoded-value evaluation of one compressed stage at a single row — the
// tuple-at-a-time path non-fused plans use when refining an existing
// position list (fts/plan/physical_plan.cc). Semantically identical to
// membership in BuildCompressedStageRanges' output.
bool EvaluateCompressedStageAtRow(const CompressedScanStage& stage,
                                  uint32_t row);

// Sorted-coalesced range intersection (two-pointer merge).
std::vector<RowRange> IntersectRanges(const std::vector<RowRange>& a,
                                      const std::vector<RowRange>& b);

// Full compressed-domain chunk execution: intersects the compressed
// stages' ranges, refines surviving candidates through the chunk's kernel
// stages (scalar, one row at a time — candidates are already sparse), and
// returns the match count. With `out` non-null it also writes the matching
// positions ascending into `out` (capacity row_count + kScanOutputSlack);
// with `out` null it only counts, and a chunk without kernel stages counts
// each range by its length without visiting a row. `compressed` must be
// non-empty.
size_t ExecuteCompressedChunk(
    const std::vector<CompressedScanStage>& compressed,
    const std::vector<ScanStage>& kernel_stages, uint32_t* out,
    CompressedScanStats* stats);

}  // namespace fts

#endif  // FTS_SCAN_COMPRESSED_SCAN_H_
