#ifndef FTS_JIT_SCAN_SIGNATURE_H_
#define FTS_JIT_SCAN_SIGNATURE_H_

#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/simd/agg_spec.h"
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
  // Nothing else about the column's encoding is: plain, dictionary,
  // bit-packed and frame-of-reference stages compile to the same per-row
  // chain and share cache entries, and compressed-domain (RLE/delta)
  // stages never reach the JIT (every engine runs them on the range path).
  uint8_t packed_bits = 0;

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
  // Canonical cache key, e.g. "512:i32=;u32<;f64>=" or
  // "512:i32=;i32=#agg:COUNTi32s" or "512:i32<#agg:SUMi32s,MINf64f".
  std::string CacheKey() const;

  friend bool operator==(const JitScanSignature& a,
                         const JitScanSignature& b) = default;
};

// Builds the signature of a prepared per-chunk stage array.
JitScanSignature SignatureForStages(const std::vector<ScanStage>& stages,
                                    int register_bits);

}  // namespace fts

#endif  // FTS_JIT_SCAN_SIGNATURE_H_
