#include "fts/cost/cost_model.h"

#include <algorithm>

namespace fts {
namespace cost {

double StageRank(const CostProfile& profile, EncClass enc,
                 double selectivity) {
  const double ineffectiveness = std::max(1e-9, 1.0 - selectivity);
  return profile.rest_ns[static_cast<size_t>(enc)] / ineffectiveness;
}

}  // namespace cost
}  // namespace fts
