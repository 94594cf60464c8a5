#ifndef FTS_COST_COST_PROFILE_H_
#define FTS_COST_COST_PROFILE_H_

#include <array>
#include <cstdint>
#include <string>

#include "fts/common/aligned_buffer.h"
#include "fts/common/status.h"
#include "fts/scan/scan_engine.h"
#include "fts/storage/bitpacked_column.h"

namespace fts {
namespace cost {

// Encoding classes the calibrated per-row constants are indexed by. The
// kernels see only three operand shapes: 32-bit fixed-size elements
// (plain i32/u32/f32 and unpacked dictionary code vectors), 64-bit
// fixed-size elements, and bit-packed code streams (bit-packed,
// frame-of-reference). RLE and delta stages never reach the kernels; they
// carry their own run/block constants below.
enum class EncClass : uint8_t {
  kPlain32 = 0,
  kPlain64,
  kPacked,
};
inline constexpr size_t kNumEncClasses = 3;

const char* EncClassName(EncClass enc);

// Calibrated per-row constants for one ScanEngine. The chain cost model
// (cost_model.h) is
//
//   cost = rows * first_ns[enc_0]
//        + sum_{i>0} rows * prefix_sel_i * rest_ns[enc_i]
//        + matches * emit_ns
//
// where prefix_sel_i is the product of the selectivities of stages
// 0..i-1. `first_ns` is the full-width pass every chain pays for its
// first stage; `rest_ns` is the per-surviving-row cost of each later
// stage (the fused kernels gather survivors, the SISD loops short-circuit
// — both are linear in rows reaching the stage); `emit_ns` is the cost of
// materializing one match position (or folding it into aggregate terms,
// which the model prices the same).
struct EngineCostConstants {
  bool available = false;
  std::array<double, kNumEncClasses> first_ns{};
  std::array<double, kNumEncClasses> rest_ns{};
  double emit_ns = 0.0;
};

inline constexpr size_t kNumEngines = 9;  // ScanEngine enumerator count.

// The calibrated throughput profile: per-engine per-encoding-class scan
// constants plus the compressed-domain and JIT constants. Produced either
// by Defaults() (static, ballpark numbers — good enough for chain
// ranking) or Calibrate() (measured on this machine — required for
// engine adaptation and time prediction). Serialized to a versioned
// key-value text file keyed by the calibrating CPU's feature string, so a
// stale or foreign profile is detected and re-measured.
struct CostProfile {
  static constexpr int kVersion = 2;

  int version = kVersion;
  std::string cpu;        // GetCpuFeatures().ToString() at calibration.
  bool calibrated = false;

  // Indexed by static_cast<size_t>(ScanEngine). kJit's constants are
  // derived from the best fused engine via jit_speed_factor at
  // finalization; kBlockwise is never an adaptation candidate and stays
  // unavailable.
  std::array<EngineCostConstants, kNumEngines> engines{};

  // Compressed-domain constants (engine-independent: every engine runs
  // the same range path).
  double rle_run_ns = 4.0;      // Classify one run + extend ranges.
  double delta_block_ns = 12.0; // Classify one block from its min/max.
  double delta_row_ns = 3.0;    // Prefix-reconstruct + compare one row.
  double compressed_emit_ns = 0.5;  // Append one position from a range.

  // JIT model: generated code runs at (best fused cost) * factor. No
  // query waits for a compile (tiered JIT, DESIGN.md §7), so none is
  // priced.
  double jit_speed_factor = 0.85;

  const EngineCostConstants& For(ScanEngine engine) const {
    return engines[static_cast<size_t>(engine)];
  }

  // Versioned key-value text round-trip. Parse fails on a version or
  // malformed-line mismatch, and on a calibrated profile that lacks an
  // engine Calibrate() measures (a truncated file); callers treat a
  // cpu-string mismatch as a stale profile and recalibrate.
  std::string Serialize() const;
  static StatusOr<CostProfile> Parse(const std::string& text);

  // Static ballpark constants: no measurement, every engine the CPU
  // supports marked available. Used when only chain ranking is needed.
  static CostProfile Defaults();

  // Measures the constants on this machine with synthetic-column runs,
  // each in the regime it prices: the best fused engine over 2^21 rows
  // (past L2, memory-bound like real scans), the compute-bound SISD pair
  // and RLE/delta constants over 2^16 units (L2-resident). Only the
  // adaptation set is measured: kSisdNoVec, kSisdAutoVec and
  // BestFusedEngine(), from which kJit is derived; the other fused
  // engines stay unavailable. FTS_CALIBRATE_FAST=1 shrinks rows/reps
  // (tests); expect ~0.15 s full, ~20 ms fast.
  static CostProfile Calibrate();
};

// The best fused engine this CPU runs: the engine of BestAvailableKernel(),
// which is what Database::DefaultEngine() requests and what the scanner
// ranks chains against. Calibration measures it and derives kJit from it.
ScanEngine BestFusedEngine();

namespace internal {

// Calibration fixture data, exposed for tests. FillCalibrationColumns
// draws `rows` plain values in [0, 1000) and `rows` bit-packed codes in
// [0, kCalibrationCodes) alternately from one fixed-seed generator.
// PackCalibrationCodes writes the codes straight into the 9-bit stream
// over the identity dictionary 0..511 — byte for byte what
// BitPackedColumn::FromValues builds whenever every code occurs, without
// its sort and per-row binary search.
inline constexpr uint32_t kCalibrationCodes = 512;
void FillCalibrationColumns(size_t rows, uint32_t* values, int32_t* codes);
BitPackedColumn<int32_t> PackCalibrationCodes(
    const AlignedVector<int32_t>& codes);

}  // namespace internal

// Process-wide profiles. DefaultProfile() is the static table;
// CalibratedProfile() loads FTS_COST_PROFILE (when set) if its version
// and CPU string match, else calibrates and (best-effort) replaces the
// file atomically. Both are computed once and cached for the process
// lifetime.
const CostProfile& DefaultProfile();
const CostProfile& CalibratedProfile();

// FTS_ADAPTIVE kill switch (default on): gates chain re-ranking and
// per-chunk engine adaptation everywhere. Re-read on every call (it is
// consulted once per Prepare) so the determinism fuzzers can toggle it
// within one process.
bool AdaptiveEnabled();

}  // namespace cost
}  // namespace fts

#endif  // FTS_COST_COST_PROFILE_H_
