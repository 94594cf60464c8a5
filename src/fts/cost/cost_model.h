#ifndef FTS_COST_COST_MODEL_H_
#define FTS_COST_COST_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "fts/cost/cost_profile.h"
#include "fts/storage/compare_op.h"

namespace fts {
namespace cost {

// One conjunct as the cost model sees it: the operand shape the kernels
// read and the estimated fraction of rows (reaching it) that pass.
struct StageCost {
  EncClass enc = EncClass::kPlain32;
  double selectivity = 0.5;
};

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
// is the per-row cost of evaluating the stage on the ranking engine.
// Stages that filter nothing (sel -> 1) rank last regardless of cost.
double StageRank(const CostProfile& profile, ScanEngine ranking_engine,
                 EncClass enc, double selectivity);

// Expected nanoseconds for one chunk's kernel chain on `engine`:
//
//   rows * first_ns[enc_0]
//   + sum_{i>0} rows * prefix_sel_i * rest_ns[enc_i]
//   + rows * chain_sel * emit_ns
//
// `stages` must be in execution order. Every match pays the emit term:
// a morsel either materializes its position or folds it into aggregate
// terms, and the fold costs about one emit per match.
double ChainCostNs(const CostProfile& profile, ScanEngine engine,
                   const std::vector<StageCost>& stages, double rows);

// Expected nanoseconds to batch-gather a late-materialized projection.
// `cells_by_encoding[e]` counts output cells whose source column carries
// ColumnEncoding e (same index space as ExecutionReport::stage_encodings:
// 0=plain, 1=dictionary, 2=bit-packed, 3=RLE, 4=FoR, 5=delta). The kernel
// encodings (plain/dict/packed/FoR) are priced with the engine's per-match
// emit constant — a gathered cell is the same position-indexed load+store
// the scan's emit path performs — and the compressed encodings reuse the
// engine-independent compressed-domain constants: RLE cells cost one
// range-append each, delta cells one prefix-reconstructed row each.
double GatherCostNs(const CostProfile& profile, ScanEngine engine,
                    const uint64_t cells_by_encoding[6]);

// Expected matches of a conjunction with the given per-stage
// selectivities (independence assumption).
inline double ChainSelectivity(const std::vector<StageCost>& stages) {
  double sel = 1.0;
  for (const StageCost& stage : stages) sel *= stage.selectivity;
  return sel;
}

}  // namespace cost
}  // namespace fts

#endif  // FTS_COST_COST_MODEL_H_
