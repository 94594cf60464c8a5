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

// Emits a standalone C++ translation unit implementing the fused scan for
// `signature` (Section V: the operator "follows a very static pattern and
// can easily be expressed as a code template", so the paper — and this
// reproduction — generate C++ rather than specialize LLVM IR). Every
// type/comparator/width decision is resolved at generation time; only
// column pointers and search values remain runtime parameters.
//
// Fails for empty signatures, chains beyond kMaxScanStages, or an invalid
// register width. Compressed-domain (RLE/delta) chains have no generated
// operator: their work is per run or block, not per row, so there is no
// per-row decision to burn in, and every engine runs them on the
// interpreted range path (fts/scan/compressed_scan.h).
StatusOr<std::string> GenerateFusedScanSource(
    const JitScanSignature& signature);

}  // namespace fts

#endif  // FTS_JIT_CODE_GENERATOR_H_
