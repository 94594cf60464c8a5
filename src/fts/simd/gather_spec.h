#ifndef FTS_SIMD_GATHER_SPEC_H_
#define FTS_SIMD_GATHER_SPEC_H_

#include <cstddef>
#include <cstdint>

#include "fts/simd/agg_spec.h"
#include "fts/simd/scan_stage.h"

namespace fts {

// One projected column of a batch-gather: materialize the values at an
// ascending list of chunk offsets (a scan's survivor positions) into a
// dense typed output array. This is the projection analogue of AggTerm —
// the same three source shapes the aggregate kernels decode, but writing
// values out instead of folding them into accumulators.
//
// Source shapes:
//   - Plain:       `dict` null, `packed_bits` 0; `data` is a contiguous
//                  array of `type` elements read directly.
//   - Dictionary:  `dict` non-null; `data` is the u32 code vector (or the
//                  bit-packed byte stream when `packed_bits` is non-zero)
//                  and `dict` is the decode table of `type` elements
//                  indexed by code.
//   - Frame-of-reference: `dict` null, `packed_bits` non-zero; `data` is
//                  the packed unsigned-delta stream and `base_bits` holds
//                  the chunk base; the gathered value is
//                  (base + delta) truncated to the element width. `type`
//                  names the decoded integral element (kI32/kU32/kI64/
//                  kU64 — FoR never encodes floats).
//
// Narrow (1/2-byte) elements and the RLE/delta encodings never reach a
// kernel: the scan-layer gatherer (fts/scan/projection_gather.h) handles
// them with typed run/block-aware loops.
struct GatherTerm {
  const void* data = nullptr;       // Element array / u32 codes / packed bytes.
  ScanElementType type = ScanElementType::kI32;  // Output element type.
  uint8_t packed_bits = 0;          // Non-zero: bit-packed u32 codes.
  const void* dict = nullptr;       // Non-null: decode table of `type` elems.
  uint64_t base_bits = 0;           // FoR base (raw bits), added to the code.
};

// Gather kernel contract shared by the scalar, AVX2 and AVX-512
// implementations: materialize `term`'s value at each of the `n` ascending
// chunk offsets in `positions` into `out[0..n)`, a dense array of `type`
// elements. Positions are produced by the fused scan, so every offset is
// in-bounds for `data`; bit-packed streams carry kBitPackedSlackBytes of
// padding, which keeps the kernels' 8-byte window loads in-bounds for the
// last logical element.
using GatherFn = void (*)(const GatherTerm& term, const uint32_t* positions,
                          size_t n, void* out);

// Decoded u64 bit pattern of `term`'s value at `row` — the semantic
// reference every SIMD gather lane is verified against. Integral values
// are zero/sign-extended per the element width; float bits are the IEEE
// pattern. Callers store the low ScanElementSize(term.type) bytes.
inline uint64_t GatherBitsAtRow(const GatherTerm& term, size_t row) {
  if (term.dict != nullptr || term.packed_bits != 0) {
    const uint32_t code =
        term.packed_bits != 0
            ? ExtractPackedCode(term.data, term.packed_bits, row)
            : static_cast<const uint32_t*>(term.data)[row];
    if (term.dict == nullptr) {
      // Frame-of-reference: rebase the delta. Wraparound addition is
      // exact for every integral width (two's complement).
      return term.base_bits + code;
    }
    switch (term.type) {
      case ScanElementType::kI32:
      case ScanElementType::kU32:
      case ScanElementType::kF32:
        return static_cast<const uint32_t*>(term.dict)[code];
      case ScanElementType::kI64:
      case ScanElementType::kU64:
      case ScanElementType::kF64:
        return static_cast<const uint64_t*>(term.dict)[code];
    }
    __builtin_unreachable();
  }
  switch (term.type) {
    case ScanElementType::kI32:
    case ScanElementType::kU32:
    case ScanElementType::kF32:
      return static_cast<const uint32_t*>(term.data)[row];
    case ScanElementType::kI64:
    case ScanElementType::kU64:
    case ScanElementType::kF64:
      return static_cast<const uint64_t*>(term.data)[row];
  }
  __builtin_unreachable();
}

// True when `type` stores 8-byte elements (the kernels' only width split).
inline bool GatherElementIs64(ScanElementType type) {
  return type == ScanElementType::kI64 || type == ScanElementType::kU64 ||
         type == ScanElementType::kF64;
}

}  // namespace fts

#endif  // FTS_SIMD_GATHER_SPEC_H_
