#include "fts/jit/scan_signature.h"

#include "fts/common/string_util.h"

namespace fts {

std::string JitScanSignature::CacheKey() const {
  std::string key = StrFormat("%d:", register_bits);
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) key += ';';
    key += ScanElementTypeToString(stages[i].type);
    key += CompareOpToString(stages[i].op);
    if (stages[i].packed_bits != 0) {
      key += StrFormat("@%d", stages[i].packed_bits);
    }
  }
  if (!aggs.empty()) {
    key += "#agg:";
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (i > 0) key += ',';
      key += AggOpToString(aggs[i].op);
      key += ScanElementTypeToString(aggs[i].type);
      switch (aggs[i].domain) {
        case AggDomain::kSigned:
          key += 's';
          break;
        case AggDomain::kUnsigned:
          key += 'u';
          break;
        case AggDomain::kFloat:
          key += 'f';
          break;
      }
    }
  }
  return key;
}

JitScanSignature SignatureForStages(const std::vector<ScanStage>& stages,
                                    int register_bits) {
  JitScanSignature signature;
  signature.register_bits = register_bits;
  signature.stages.reserve(stages.size());
  for (const ScanStage& stage : stages) {
    signature.stages.push_back({stage.type, stage.op, stage.packed_bits});
  }
  return signature;
}

}  // namespace fts
