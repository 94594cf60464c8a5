#include "fts/scan/compressed_scan.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "fts/common/macros.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/zone_map.h"

namespace fts {
namespace {

// Appends [start, end), coalescing with the previous range when adjacent
// or overlapping (stage builders emit ascending starts).
void AppendRange(std::vector<RowRange>* ranges, uint32_t start,
                 uint32_t end) {
  if (start >= end) return;
  if (!ranges->empty() && ranges->back().second >= start) {
    ranges->back().second = std::max(ranges->back().second, end);
    return;
  }
  ranges->emplace_back(start, end);
}

template <typename T>
void RleStageRanges(const RleColumn<T>& column, CompareOp op, T value,
                    std::vector<RowRange>* ranges,
                    CompressedScanStats* stats) {
  const std::vector<T>& run_values = column.run_values();
  const auto& run_ends = column.run_ends();
  uint32_t start = 0;
  for (size_t i = 0; i < run_values.size(); ++i) {
    const uint32_t end = run_ends[i];
    if (EvaluateCompare(op, run_values[i], value)) {
      AppendRange(ranges, start, end);
    } else {
      stats->rle_runs_skipped++;
    }
    start = end;
  }
  stats->rle_runs_classified += run_values.size();
}

template <typename T>
void DeltaStageRanges(const DeltaColumn<T>& column, CompareOp op, T value,
                      std::vector<RowRange>* ranges,
                      CompressedScanStats* stats) {
  T scratch[kDeltaBlockRows];
  uint32_t start = 0;
  for (size_t b = 0; b < column.blocks().size(); ++b) {
    const auto& meta = column.blocks()[b];
    const uint32_t end = start + meta.rows;
    switch (ClassifyZone<T>(meta.min, meta.max, op, value)) {
      case ZoneFate::kAll:
        AppendRange(ranges, start, end);
        stats->delta_blocks_pruned++;
        break;
      case ZoneFate::kNone:
        stats->delta_blocks_pruned++;
        break;
      case ZoneFate::kMaybe: {
        // Undecided: prefix-reconstruct the block and test row-wise.
        const size_t rows = column.DecodeBlock(b, scratch);
        stats->delta_blocks_decoded++;
        for (size_t i = 0; i < rows; ++i) {
          if (EvaluateCompare(op, scratch[i], value)) {
            AppendRange(ranges, start + static_cast<uint32_t>(i),
                        start + static_cast<uint32_t>(i) + 1);
          }
        }
        break;
      }
    }
    start = end;
  }
}

}  // namespace

std::vector<RowRange> BuildCompressedStageRanges(
    const CompressedScanStage& stage, CompressedScanStats* stats) {
  std::vector<RowRange> ranges;
  const BaseColumn& column = *stage.column;
  DispatchDataType(column.data_type(), [&](auto tag) {
    using T = decltype(tag);
    const T value = ValueAs<T>(stage.value);
    switch (column.encoding()) {
      case ColumnEncoding::kRle:
        RleStageRanges(static_cast<const RleColumn<T>&>(column), stage.op,
                       value, &ranges, stats);
        return;
      case ColumnEncoding::kDelta:
        if constexpr (std::is_integral_v<T>) {
          DeltaStageRanges(static_cast<const DeltaColumn<T>&>(column),
                           stage.op, value, &ranges, stats);
          return;
        }
        break;
      default:
        break;
    }
    FTS_CHECK_MSG(false, "compressed stage over a non-compressed column");
  });
  return ranges;
}

bool EvaluateCompressedStageAtRow(const CompressedScanStage& stage,
                                  uint32_t row) {
  bool match = false;
  const BaseColumn& column = *stage.column;
  DispatchDataType(column.data_type(), [&](auto tag) {
    using T = decltype(tag);
    const T value = ValueAs<T>(stage.value);
    switch (column.encoding()) {
      case ColumnEncoding::kRle:
        match = EvaluateCompare(
            stage.op, static_cast<const RleColumn<T>&>(column).ValueAt(row),
            value);
        return;
      case ColumnEncoding::kDelta:
        if constexpr (std::is_integral_v<T>) {
          match = EvaluateCompare(
              stage.op,
              static_cast<const DeltaColumn<T>&>(column).ValueAt(row), value);
          return;
        }
        break;
      default:
        break;
    }
    FTS_CHECK_MSG(false, "compressed stage over a non-compressed column");
  });
  return match;
}

std::vector<RowRange> IntersectRanges(const std::vector<RowRange>& a,
                                      const std::vector<RowRange>& b) {
  std::vector<RowRange> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t start = std::max(a[i].first, b[j].first);
    const uint32_t end = std::min(a[i].second, b[j].second);
    if (start < end) out.emplace_back(start, end);
    if (a[i].second <= b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

size_t ExecuteCompressedChunk(
    const std::vector<CompressedScanStage>& compressed,
    const std::vector<ScanStage>& kernel_stages, uint32_t* out,
    CompressedScanStats* stats) {
  FTS_DCHECK(!compressed.empty());
  std::vector<RowRange> candidates =
      BuildCompressedStageRanges(compressed[0], stats);
  for (size_t s = 1; s < compressed.size() && !candidates.empty(); ++s) {
    candidates = IntersectRanges(
        candidates, BuildCompressedStageRanges(compressed[s], stats));
  }
  size_t count = 0;
  for (const RowRange& range : candidates) {
    if (kernel_stages.empty()) {
      // Every candidate matches: emit the range's rows, or only count them.
      const uint32_t length = range.second - range.first;
      if (out != nullptr) {
        std::iota(out + count, out + count + length, range.first);
      }
      count += length;
      continue;
    }
    // Refine the sparse candidates through the chunk's kernel stages with
    // the scalar ground-truth evaluator — identical semantics to every
    // SIMD kernel, so the result matches a decode-then-scan run bit for
    // bit.
    for (uint32_t row = range.first; row < range.second; ++row) {
      bool match = true;
      for (size_t s = 0; match && s < kernel_stages.size(); ++s) {
        match = EvaluateStageAtRow(kernel_stages[s], row);
      }
      if (!match) continue;
      if (out != nullptr) out[count] = row;
      ++count;
    }
  }
  return count;
}

}  // namespace fts
