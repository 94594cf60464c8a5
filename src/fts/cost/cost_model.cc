#include "fts/cost/cost_model.h"

#include <algorithm>

namespace fts {
namespace cost {

double StageRank(const CostProfile& profile, ScanEngine ranking_engine,
                 EncClass enc, double selectivity) {
  const EngineCostConstants& e = profile.For(ranking_engine);
  const double per_row = e.available
                             ? e.rest_ns[static_cast<size_t>(enc)]
                             : 1.0;
  const double ineffectiveness = std::max(1e-9, 1.0 - selectivity);
  return per_row / ineffectiveness;
}

double ChainCostNs(const CostProfile& profile, ScanEngine engine,
                   const std::vector<StageCost>& stages, double rows) {
  const EngineCostConstants& e = profile.For(engine);
  if (!e.available || stages.empty()) return 0.0;
  double cost = rows * e.first_ns[static_cast<size_t>(stages[0].enc)];
  double prefix_sel = stages[0].selectivity;
  for (size_t i = 1; i < stages.size(); ++i) {
    cost += rows * prefix_sel * e.rest_ns[static_cast<size_t>(stages[i].enc)];
    prefix_sel *= stages[i].selectivity;
  }
  // The aggregate kernels fold instead of emitting, at comparable
  // per-match cost, so the emit constant stands in for the fold.
  return cost + rows * prefix_sel * e.emit_ns;
}

double GatherCostNs(const CostProfile& profile, ScanEngine engine,
                    const uint64_t cells_by_encoding[6]) {
  const EngineCostConstants& e = profile.For(engine);
  // An engine without calibrated constants (a fused engine outside the
  // adaptation set, blockwise) falls back to the best fused engine's emit
  // constant — the gather kernels run regardless of which engine produced
  // the positions.
  double emit = e.available ? e.emit_ns : 0.0;
  if (emit <= 0.0) emit = profile.For(BestFusedEngine()).emit_ns;
  const double kernel_cells =
      static_cast<double>(cells_by_encoding[0] + cells_by_encoding[1] +
                          cells_by_encoding[2] + cells_by_encoding[4]);
  return kernel_cells * emit +
         static_cast<double>(cells_by_encoding[3]) *
             profile.compressed_emit_ns +
         static_cast<double>(cells_by_encoding[5]) * profile.delta_row_ns;
}

}  // namespace cost
}  // namespace fts
