#ifndef FTS_JIT_CODE_GENERATOR_H_
#define FTS_JIT_CODE_GENERATOR_H_

#include <string>

#include "fts/common/status.h"
#include "fts/jit/scan_signature.h"

namespace fts {

// Symbol exported by every generated translation unit.
inline constexpr char kJitScanSymbol[] = "fts_jit_fused_scan";

// Signature of the generated function:
//   columns:   one data pointer per stage
//   values:    packed search values, one 8-byte slot per stage
//   row_count: rows in the chunk
//   out:       match positions (capacity row_count + 16)
// returns the number of matches.
using JitScanFn = size_t (*)(const void* const* columns, const void* values,
                             size_t row_count, uint32_t* out);

inline constexpr size_t kJitValueSlotBytes = 8;

// Operand of one RLE stage in a generated all-RLE compressed-domain
// operator: the engine passes `&view` in the stage's `columns` slot
// instead of a row-indexed data pointer. The generated translation unit
// declares a structurally identical mirror, so the layout is ABI.
struct JitRleView {
  const void* run_values = nullptr;   // run_count typed run values.
  const uint32_t* run_ends = nullptr; // Cumulative ends; back() == rows.
  uint64_t run_count = 0;
};

// Emits a standalone C++ translation unit implementing the fused scan for
// `signature` (Section V: the operator "follows a very static pattern and
// can easily be expressed as a code template", so the paper — and this
// reproduction — generate C++ rather than specialize LLVM IR). Every
// type/comparator/width decision is resolved at generation time; only
// column pointers and search values remain runtime parameters.
//
// Fails for empty signatures, chains beyond kMaxScanStages, or an invalid
// register width.
//
// Signatures whose stages are all RLE-encoded (SignatureForRleChain)
// instead generate the compressed-domain run-coiteration operator: each
// `columns` slot is a JitRleView, every run value is classified once, and
// qualifying row segments are emitted without per-row compares — or, when
// every aggregate term is COUNT, only counted into the terms. Mixed
// RLE/kernel chains and RLE operators with value-reading aggregate terms
// are rejected — the ladder demotes those to the interpreted path.
StatusOr<std::string> GenerateFusedScanSource(
    const JitScanSignature& signature);

// Emits the equivalent *data-centric SISD* operator (tight tuple-at-a-time
// loop with short-circuit &&) for the same signature. Used by tests and
// the JIT ablation bench to compare generated-SIMD vs generated-scalar.
StatusOr<std::string> GenerateSisdScanSource(
    const JitScanSignature& signature);

}  // namespace fts

#endif  // FTS_JIT_CODE_GENERATOR_H_
