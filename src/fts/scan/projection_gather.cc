#include "fts/scan/projection_gather.h"

#include <optional>
#include <type_traits>

#include "fts/storage/bitpacked_column.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/value_column.h"

namespace fts {
namespace {

// Kernel element tag for a 4- or 8-byte declared type; nullopt for the
// narrow types the kernels do not cover (they take the typed loop).
std::optional<ScanElementType> KernelElementFor(DataType type) {
  switch (type) {
    case DataType::kInt32:
      return ScanElementType::kI32;
    case DataType::kUInt32:
      return ScanElementType::kU32;
    case DataType::kFloat32:
      return ScanElementType::kF32;
    case DataType::kInt64:
      return ScanElementType::kI64;
    case DataType::kUInt64:
      return ScanElementType::kU64;
    case DataType::kFloat64:
      return ScanElementType::kF64;
    default:
      return std::nullopt;
  }
}

// Raw two's-complement bits of a FoR base, sign-extended to 64 bits so
// the kernels' wraparound add is exact at every element width.
template <typename T>
uint64_t ForBaseBits(T base) {
  if constexpr (std::is_signed_v<T>) {
    return static_cast<uint64_t>(static_cast<int64_t>(base));
  } else {
    return static_cast<uint64_t>(base);
  }
}

// Typed unboxed per-row loop for the encodings/widths outside the kernel
// contract. Still never constructs a Value.
template <typename T>
void GatherTyped(const BaseColumn& column, const ChunkOffset* positions,
                 size_t n, T* dst) {
  switch (column.encoding()) {
    case ColumnEncoding::kPlain: {
      const T* src = static_cast<const ValueColumn<T>&>(column).data();
      for (size_t i = 0; i < n; ++i) dst[i] = src[positions[i]];
      return;
    }
    case ColumnEncoding::kDictionary: {
      const auto& dict_column =
          static_cast<const DictionaryColumn<T>&>(column);
      const T* dict = dict_column.dictionary().data();
      const uint32_t* codes = dict_column.codes().data();
      for (size_t i = 0; i < n; ++i) dst[i] = dict[codes[positions[i]]];
      return;
    }
    case ColumnEncoding::kBitPacked: {
      const auto& packed = static_cast<const BitPackedColumn<T>&>(column);
      const T* dict = packed.dictionary().data();
      for (size_t i = 0; i < n; ++i) {
        dst[i] = dict[packed.CodeAt(positions[i])];
      }
      return;
    }
    case ColumnEncoding::kFor: {
      if constexpr (std::is_integral_v<T>) {
        const auto& for_column = static_cast<const ForColumn<T>&>(column);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = for_column.ValueAt(positions[i]);
        }
        return;
      }
      break;
    }
    case ColumnEncoding::kRle:
    case ColumnEncoding::kDelta:
      break;  // Handled by the dedicated run/block walks.
  }
  FTS_CHECK_MSG(false, "unreachable typed-gather encoding");
}

// RLE: ascending positions advance a run cursor in tandem with the
// cumulative run ends — O(survivors + runs touched), no binary search,
// and runs without survivors are skipped by the inner advance. `*run`
// resumes where the previous batch of the same chunk stopped.
template <typename T>
void GatherRle(const RleColumn<T>& column, const ChunkOffset* positions,
               size_t n, T* dst, size_t* run) {
  const AlignedVector<uint32_t>& ends = column.run_ends();
  const std::vector<T>& values = column.run_values();
  size_t r = *run;
  for (size_t i = 0; i < n; ++i) {
    const ChunkOffset pos = positions[i];
    while (ends[r] <= pos) ++r;
    dst[i] = values[r];
  }
  *run = r;
}

// Delta: decode only the blocks that contain survivors; blocks without a
// survivor are never prefix-reconstructed, and the block the previous
// batch ended in is not decoded twice.
template <typename T>
uint64_t GatherDelta(const DeltaColumn<T>& column,
                     const ChunkOffset* positions, size_t n, T* dst,
                     GatherCursor* cursor) {
  T* const buffer = reinterpret_cast<T*>(cursor->block_values);
  uint64_t blocks_decoded = 0;
  size_t i = 0;
  while (i < n) {
    const size_t block = positions[i] / kDeltaBlockRows;
    if (block != cursor->block) {
      column.DecodeBlock(block, buffer);
      cursor->block = block;
      ++blocks_decoded;
    }
    const uint64_t block_start =
        static_cast<uint64_t>(block) * kDeltaBlockRows;
    const uint64_t block_end = block_start + kDeltaBlockRows;
    do {
      dst[i] = buffer[positions[i] - block_start];
      ++i;
    } while (i < n && positions[i] < block_end);
  }
  return blocks_decoded;
}

}  // namespace

FusedKernelKind GatherKernelFor(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kSisdNoVec:
    case ScanEngine::kSisdAutoVec:
    case ScanEngine::kScalarFused:
      return FusedKernelKind::kScalar;
    case ScanEngine::kAvx2Fused128:
      return FusedKernelKind::kAvx2_128;
    case ScanEngine::kAvx512Fused128:
      return FusedKernelKind::kAvx512_128;
    case ScanEngine::kAvx512Fused256:
      return FusedKernelKind::kAvx512_256;
    case ScanEngine::kAvx512Fused512:
    case ScanEngine::kJit:
      return FusedKernelKind::kAvx512_512;
    case ScanEngine::kBlockwise:
      return BestAvailableKernel();
  }
  return FusedKernelKind::kScalar;
}

StatusOr<ProjectionGatherer> ProjectionGatherer::Prepare(
    TablePtr table, std::vector<size_t> columns) {
  FTS_CHECK(table != nullptr);
  ProjectionGatherer gatherer;
  gatherer.table_ = std::move(table);
  gatherer.columns_ = std::move(columns);
  gatherer.output_types_.reserve(gatherer.columns_.size());
  for (const size_t column : gatherer.columns_) {
    if (column >= gatherer.table_->column_count()) {
      return Status::InvalidArgument("projected column index out of range");
    }
    gatherer.output_types_.push_back(
        gatherer.table_->column_definition(column).type);
  }
  const size_t chunk_count = gatherer.table_->chunk_count();
  const size_t width = gatherer.columns_.size();
  gatherer.plans_.resize(chunk_count * width);
  for (size_t chunk_id = 0; chunk_id < chunk_count; ++chunk_id) {
    const Chunk& chunk = gatherer.table_->chunk(
        static_cast<ChunkId>(chunk_id));
    for (size_t c = 0; c < width; ++c) {
      ColumnChunkPlan& plan = gatherer.plans_[chunk_id * width + c];
      const BaseColumn& column = chunk.column(gatherer.columns_[c]);
      plan.column = &column;
      plan.encoding = column.encoding();
      const std::optional<ScanElementType> element =
          KernelElementFor(column.data_type());
      switch (plan.encoding) {
        case ColumnEncoding::kRle:
          plan.path = Path::kRle;
          break;
        case ColumnEncoding::kDelta:
          plan.path = Path::kDelta;
          break;
        case ColumnEncoding::kPlain:
          if (!element.has_value()) {
            plan.path = Path::kTyped;
            break;
          }
          plan.path = Path::kKernel;
          plan.term.data = column.scan_data();
          plan.term.type = *element;
          break;
        case ColumnEncoding::kDictionary:
        case ColumnEncoding::kBitPacked: {
          if (!element.has_value()) {
            plan.path = Path::kTyped;
            break;
          }
          plan.path = Path::kKernel;
          plan.term.data = column.scan_data();
          plan.term.type = *element;
          plan.term.packed_bits = column.packed_bit_width();
          // The sorted dictionary of T is element-width entries, indexed
          // by code — exactly the kernels' translate-table contract.
          DispatchDataType(column.data_type(), [&](auto tag) {
            using T = decltype(tag);
            if constexpr (sizeof(T) >= 4) {
              if (plan.encoding == ColumnEncoding::kDictionary) {
                plan.term.dict = static_cast<const DictionaryColumn<T>&>(
                                     column)
                                     .dictionary()
                                     .data();
              } else {
                plan.term.dict =
                    static_cast<const BitPackedColumn<T>&>(column)
                        .dictionary()
                        .data();
              }
            }
          });
          break;
        }
        case ColumnEncoding::kFor: {
          if (!element.has_value()) {
            plan.path = Path::kTyped;
            break;
          }
          plan.path = Path::kKernel;
          plan.term.data = column.scan_data();
          plan.term.type = *element;
          plan.term.packed_bits = column.packed_bit_width();
          DispatchDataType(column.data_type(), [&](auto tag) {
            using T = decltype(tag);
            if constexpr (std::is_integral_v<T> && sizeof(T) >= 4) {
              plan.term.base_bits = ForBaseBits(
                  static_cast<const ForColumn<T>&>(column).base());
            }
          });
          break;
        }
      }
    }
  }
  return gatherer;
}

void ProjectionGatherer::InitResult(const std::vector<std::string>& names,
                                    ColumnarResult* out) const {
  FTS_CHECK(names.size() == columns_.size());
  out->Clear();
  for (size_t c = 0; c < columns_.size(); ++c) {
    out->AddColumn(names[c], output_types_[c]);
  }
}

void ProjectionGatherer::GatherChunkColumn(
    GatherFn fn, ChunkId chunk_id, size_t out_column,
    const ChunkOffset* positions, size_t n, ColumnarResult* out,
    size_t dst_offset, GatherStats* stats) const {
  if (n == 0) return;
  GatherCursor cursor;
  GatherColumnInto(fn, chunk_id, out_column, positions, n,
                   out->MutableData(out_column, dst_offset), &cursor, stats);
}

void ProjectionGatherer::GatherColumnInto(GatherFn fn, ChunkId chunk_id,
                                          size_t out_column,
                                          const ChunkOffset* positions,
                                          size_t n, void* dst,
                                          GatherCursor* cursor,
                                          GatherStats* stats) const {
  if (n == 0) return;
  const ColumnChunkPlan& plan =
      plans_[static_cast<size_t>(chunk_id) * columns_.size() + out_column];
  stats->rows_by_encoding[static_cast<size_t>(plan.encoding)] += n;
  switch (plan.path) {
    case Path::kKernel:
      fn(plan.term, positions, n, dst);
      stats->kernel_rows += n;
      return;
    case Path::kTyped:
      DispatchDataType(output_types_[out_column], [&](auto tag) {
        using T = decltype(tag);
        GatherTyped<T>(*plan.column, positions, n, static_cast<T*>(dst));
      });
      stats->typed_rows += n;
      return;
    case Path::kRle:
      DispatchDataType(output_types_[out_column], [&](auto tag) {
        using T = decltype(tag);
        GatherRle<T>(static_cast<const RleColumn<T>&>(*plan.column),
                     positions, n, static_cast<T*>(dst), &cursor->run);
      });
      stats->typed_rows += n;
      return;
    case Path::kDelta:
      DispatchDataType(output_types_[out_column], [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_integral_v<T>) {
          stats->delta_blocks_decoded += GatherDelta<T>(
              static_cast<const DeltaColumn<T>&>(*plan.column), positions,
              n, static_cast<T*>(dst), cursor);
        }
      });
      stats->typed_rows += n;
      return;
  }
}

void ProjectionGatherer::GatherChunk(GatherFn fn, ChunkId chunk_id,
                                     const ChunkOffset* positions, size_t n,
                                     ColumnarResult* out, size_t dst_offset,
                                     GatherStats* stats) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    GatherChunkColumn(fn, chunk_id, c, positions, n, out, dst_offset,
                      stats);
  }
}

}  // namespace fts
