#ifndef FTS_COST_COST_MODEL_H_
#define FTS_COST_COST_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "fts/cost/cost_profile.h"
#include "fts/storage/compare_op.h"

namespace fts {
namespace cost {

// Selectivity of `x op value` for x uniform over [min, max] (inclusive).
// The uniform assumption is the same one TableStatistics makes at the
// table level; here the bounds are a single chunk's zone map, which is
// what makes per-chunk re-ranking see skew that table statistics cannot.
// Integral domains treat kEq as one value out of (max - min + 1).
template <typename T>
double EstimateUniformSelectivity(T min, T max, CompareOp op, T value) {
  if (max < min) return 0.5;  // Degenerate bounds: estimate nothing.
  const double lo = static_cast<double>(min);
  const double hi = static_cast<double>(max);
  const double v = static_cast<double>(value);
  // Integral domains count (max - min + 1) distinct values; continuous
  // domains have no "+1" and give kEq a nominal sliver.
  const double width = std::is_floating_point_v<T>
                           ? std::max(hi - lo, 1e-300)
                           : hi - lo + 1.0;
  if constexpr (std::is_floating_point_v<T>) {
    auto clampf = [](double s) {
      return s < 0.0 ? 0.0 : (s > 1.0 ? 1.0 : s);
    };
    switch (op) {
      case CompareOp::kEq:
        return (v < lo || v > hi) ? 0.0 : 0.001;
      case CompareOp::kNe:
        return (v < lo || v > hi) ? 1.0 : 0.999;
      case CompareOp::kLt:
      case CompareOp::kLe:
        return clampf((v - lo) / width);
      case CompareOp::kGt:
      case CompareOp::kGe:
        return clampf((hi - v) / width);
    }
    __builtin_unreachable();
  }
  auto clamp01 = [](double s) { return s < 0.0 ? 0.0 : (s > 1.0 ? 1.0 : s); };
  switch (op) {
    case CompareOp::kEq:
      if (v < lo || v > hi) return 0.0;
      return clamp01(1.0 / width);
    case CompareOp::kNe:
      if (v < lo || v > hi) return 1.0;
      return clamp01(1.0 - 1.0 / width);
    case CompareOp::kLt:
      return clamp01((v - lo) / width);
    case CompareOp::kLe:
      return clamp01((v - lo + 1.0) / width);
    case CompareOp::kGt:
      return clamp01((hi - v) / width);
    case CompareOp::kGe:
      return clamp01((hi - v + 1.0) / width);
  }
  __builtin_unreachable();
}

// Rank key for cheapest-effective-first chain ordering. For independent
// conjuncts the expected chain cost is minimized by ascending
// cost_i / (1 - sel_i) (the classic predicate-ordering result); `cost_i`
// is the profile's per-row cost of evaluating a stage of class `enc`.
// Stages that filter nothing (sel -> 1) rank last regardless of cost.
double StageRank(const CostProfile& profile, EncClass enc,
                 double selectivity);

}  // namespace cost
}  // namespace fts

#endif  // FTS_COST_COST_MODEL_H_
