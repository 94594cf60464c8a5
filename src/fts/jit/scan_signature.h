#ifndef FTS_JIT_SCAN_SIGNATURE_H_
#define FTS_JIT_SCAN_SIGNATURE_H_

#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/scan/compressed_scan.h"
#include "fts/simd/agg_spec.h"
#include "fts/simd/gather_spec.h"
#include "fts/simd/scan_stage.h"

namespace fts {

// The compile-time shape of a fused scan chain: element type and
// comparator per stage, plus the register width. Search values and column
// pointers stay runtime arguments of the generated function, so one
// compiled operator serves every query with the same shape — this is what
// makes the JIT cache effective, and it is exactly the parameter split
// Section V describes (10 types x 6 comparators per stage explode
// combinatorially; values do not).
struct JitStageSignature {
  ScanElementType type = ScanElementType::kI32;
  CompareOp op = CompareOp::kEq;
  // Bit-packed code stream width; 0 = plain fixed-size elements. Part of
  // the signature because the generated unpack sequence depends on it.
  uint8_t packed_bits = 0;
  // ColumnEncoding of the stage's operand stream as the generated code
  // sees it. Only two values ever appear: 0 (kernel-scannable — plain,
  // dictionary, bit-packed and frame-of-reference stages all compile to
  // the same per-row chain, so they share cache entries) and
  // ColumnEncoding::kRle (the stage operand is a JitRleView and the
  // generated operator co-iterates runs instead of rows).
  uint8_t encoding = 0;

  friend bool operator==(const JitStageSignature& a,
                         const JitStageSignature& b) = default;
};

// One aggregate term of a generated aggregate-pushdown operator. Only
// plain (non-dictionary, non-bit-packed) columns are JIT-eligible — the
// other engines fold those; the ladder demotes such morsels past the JIT
// rungs. The fold code depends on the op, the element type read from the
// column, and the accumulator domain, so all three are signature.
struct JitAggSignature {
  AggOp op = AggOp::kCount;
  ScanElementType type = ScanElementType::kI32;
  AggDomain domain = AggDomain::kSigned;

  friend bool operator==(const JitAggSignature& a,
                         const JitAggSignature& b) = default;
};

// One projected column of a generated batch-gather operator (the JIT
// mirror of GatherTerm). Like the scan stages, only the compile-time
// shape is signature: the element type, the packed code width and
// whether a dictionary translates codes to values. Column pointers, the
// decode table, the FoR base and the output slice stay runtime arguments
// (JitGatherView), so one compiled gather serves every chunk — and every
// query — with the same column shapes.
struct JitGatherSignature {
  ScanElementType type = ScanElementType::kI32;
  // Bit-packed code stream width; 0 = plain elements or unpacked u32
  // codes. The generated window-extract sequence depends on it.
  uint8_t packed_bits = 0;
  // True: codes index a decode table of `type` elements. False with
  // packed_bits != 0 is frame-of-reference (code + runtime base).
  bool dict = false;

  friend bool operator==(const JitGatherSignature& a,
                         const JitGatherSignature& b) = default;
};

struct JitScanSignature {
  std::vector<JitStageSignature> stages;
  int register_bits = 512;  // 128, 256 or 512.
  // Aggregate-pushdown operators fold these terms at every emission site
  // instead of materializing positions; `out` is reinterpreted as an
  // AggAccumulator array (one 72-byte slot per term, already
  // default-initialized by the caller). Aggregate column pointers follow
  // the stage columns in the `columns` argument. When every term is COUNT
  // (the paper's SELECT COUNT(*)) the operator skips the compress-store of
  // match positions and just accumulates popcounts.
  std::vector<JitAggSignature> aggs;
  // Non-empty: the signature names a gather-only operator (stages and
  // aggs empty) that materializes these columns at a position list — the
  // late-materialization projection fused into one generated pass.
  // `values` is reinterpreted as the position array and each `columns`
  // slot as a JitGatherView.
  std::vector<JitGatherSignature> gathers;

  // Canonical cache key, e.g. "512:i32=;u32<;f64>=" or
  // "512:i32=;i32=#agg:COUNTi32s" or "512:i32<#agg:SUMi32s,MINf64f" or
  // "512:#gather:i32,u32@7d,i64" for a gather-only operator.
  std::string CacheKey() const;

  friend bool operator==(const JitScanSignature& a,
                         const JitScanSignature& b) = default;
};

// Builds the signature of a prepared per-chunk stage array.
JitScanSignature SignatureForStages(const std::vector<ScanStage>& stages,
                                    int register_bits);

// Builds the signature of an all-RLE compressed-domain chain
// (fts/scan/compressed_scan.h). Fails with InvalidArgument when any stage
// column is not RLE-encoded or its data type has no kernel element type —
// the ladder then demotes the morsel to the interpreted range path.
StatusOr<JitScanSignature> SignatureForRleChain(
    const std::vector<CompressedScanStage>& compressed, int register_bits);

// Builds the gather-only signature of `num_terms` kernel-eligible gather
// terms (fts/simd/gather_spec.h) in output-column order. Fails with
// InvalidArgument when the term count is outside 1..kMaxGatherTerms or a
// frame-of-reference term carries a float element type (FoR never
// encodes floats); the caller then projects through the static kernels.
StatusOr<JitScanSignature> SignatureForGatherTerms(const GatherTerm* terms,
                                                   size_t num_terms);

}  // namespace fts

#endif  // FTS_JIT_SCAN_SIGNATURE_H_
