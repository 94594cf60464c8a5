#ifndef FTS_COST_COST_PROFILE_H_
#define FTS_COST_COST_PROFILE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "fts/scan/scan_engine.h"

namespace fts {
namespace cost {

// Encoding classes the per-row constants are indexed by. The kernels see
// only three operand shapes: 32-bit fixed-size elements (plain
// i32/u32/f32 and unpacked dictionary code vectors), 64-bit fixed-size
// elements, and bit-packed code streams (bit-packed, frame-of-reference).
// RLE and delta stages never reach the kernels; they run the
// engine-independent range path and are not ranked.
enum class EncClass : uint8_t {
  kPlain32 = 0,
  kPlain64,
  kPacked,
};
inline constexpr size_t kNumEncClasses = 3;

// The static table chain ranking reads (DESIGN.md §14): the per-row cost
// of evaluating a later stage of a fused chain — one gathered, compared
// survivor — on cost::BestFusedEngine(), per encoding class. Ballpark
// Skylake-SP numbers (paper Fig. 5 shapes): the rank key consumes only
// their ratios, so they order chains without predicting wall time.
struct CostProfile {
  std::array<double, kNumEncClasses> rest_ns{};
};

// The best fused engine this CPU runs: the engine of BestAvailableKernel(),
// which is what Database::DefaultEngine() requests and what the scanner
// ranks chains against.
ScanEngine BestFusedEngine();

// The one process-wide profile: the static rest_ns row of
// BestFusedEngine(). Every query ranks from it, whatever engine it runs.
const CostProfile& DefaultProfile();

// Alias of DefaultProfile(). Nothing in the engine calls it; it stays only
// because perfbench still compiles against it, until a benchmark change
// drops that caller.
const CostProfile& CalibratedProfile();

// FTS_ADAPTIVE kill switch (default on): gates per-chunk chain re-ranking
// and the zone-map row estimates everywhere. Re-read on every call (it is
// consulted once per Prepare) so the determinism fuzzers can toggle it
// within one process.
bool AdaptiveEnabled();

}  // namespace cost
}  // namespace fts

#endif  // FTS_COST_COST_PROFILE_H_
