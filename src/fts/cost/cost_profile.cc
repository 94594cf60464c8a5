#include "fts/cost/cost_profile.h"

#include "fts/common/env.h"
#include "fts/simd/dispatch.h"

namespace fts {
namespace cost {

ScanEngine BestFusedEngine() {
  switch (BestAvailableKernel()) {
    case FusedKernelKind::kAvx512_512:
      return ScanEngine::kAvx512Fused512;
    case FusedKernelKind::kAvx512_256:
      return ScanEngine::kAvx512Fused256;
    case FusedKernelKind::kAvx512_128:
      return ScanEngine::kAvx512Fused128;
    case FusedKernelKind::kAvx2_128:
      return ScanEngine::kAvx2Fused128;
    case FusedKernelKind::kScalar:
      break;
  }
  return ScanEngine::kScalarFused;
}

const CostProfile& DefaultProfile() {
  static const CostProfile profile = [] {
    switch (BestFusedEngine()) {
      case ScanEngine::kAvx512Fused512:
        return CostProfile{{0.55, 0.85, 1.1}};
      case ScanEngine::kAvx2Fused128:
        return CostProfile{{0.9, 1.3, 1.7}};
      default:
        return CostProfile{{1.7, 1.9, 5.5}};  // kScalarFused.
    }
  }();
  return profile;
}

const CostProfile& CalibratedProfile() { return DefaultProfile(); }

bool AdaptiveEnabled() {
  // Re-read every call (it is consulted once per Prepare): the
  // determinism fuzzers toggle FTS_ADAPTIVE within one process.
  return GetEnvBool("FTS_ADAPTIVE", true);
}

}  // namespace cost
}  // namespace fts
