#include "fts/scan/scan_engine.h"

#include <utility>

#include "fts/common/cpu_info.h"
#include "fts/common/string_util.h"
#include "fts/obs/metrics.h"

namespace fts {

const char* ScanEngineToString(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kSisdNoVec:
      return "SISD (no vec)";
    case ScanEngine::kSisdAutoVec:
      return "SISD (auto vec)";
    case ScanEngine::kScalarFused:
      return "Scalar Fused";
    case ScanEngine::kAvx2Fused128:
      return "AVX2 Fused (128)";
    case ScanEngine::kAvx512Fused128:
      return "AVX-512 Fused (128)";
    case ScanEngine::kAvx512Fused256:
      return "AVX-512 Fused (256)";
    case ScanEngine::kAvx512Fused512:
      return "AVX-512 Fused (512)";
    case ScanEngine::kBlockwise:
      return "Blockwise (materializing)";
    case ScanEngine::kJit:
      return "JIT Fused";
  }
  return "?";
}

StatusOr<ScanEngine> ParseScanEngine(const std::string& name) {
  const std::string lowered = ToLower(name);
  if (lowered == "sisd-novec" || lowered == "sisd") {
    return ScanEngine::kSisdNoVec;
  }
  if (lowered == "sisd-autovec") return ScanEngine::kSisdAutoVec;
  if (lowered == "scalar-fused" || lowered == "scalar") {
    return ScanEngine::kScalarFused;
  }
  if (lowered == "avx2-128" || lowered == "avx2") {
    return ScanEngine::kAvx2Fused128;
  }
  if (lowered == "avx512-128") return ScanEngine::kAvx512Fused128;
  if (lowered == "avx512-256") return ScanEngine::kAvx512Fused256;
  if (lowered == "avx512-512" || lowered == "avx512") {
    return ScanEngine::kAvx512Fused512;
  }
  if (lowered == "blockwise") return ScanEngine::kBlockwise;
  if (lowered == "jit") return ScanEngine::kJit;
  return Status::InvalidArgument(StrFormat(
      "unknown scan engine '%s' (expected one of: sisd-novec, "
      "sisd-autovec, scalar-fused, avx2-128, avx512-128, avx512-256, "
      "avx512-512, blockwise, jit)",
      name.c_str()));
}

bool ScanEngineAvailable(ScanEngine engine) {
  const CpuFeatures& cpu = GetCpuFeatures();
  switch (engine) {
    case ScanEngine::kSisdNoVec:
    case ScanEngine::kSisdAutoVec:
    case ScanEngine::kScalarFused:
    case ScanEngine::kBlockwise:
      return true;
    case ScanEngine::kAvx2Fused128:
      return cpu.avx2;
    case ScanEngine::kAvx512Fused128:
    case ScanEngine::kAvx512Fused256:
    case ScanEngine::kAvx512Fused512:
      return cpu.HasFusedScanAvx512();
    case ScanEngine::kJit:
      return cpu.HasFusedScanAvx512();  // Generated code uses AVX-512.
  }
  return false;
}

const char* CounterSourceToString(CounterSource source) {
  switch (source) {
    case CounterSource::kUnavailable:
      return "unavailable";
    case CounterSource::kHardware:
      return "hardware";
  }
  return "?";
}

std::string ScanCounters::ToString() const {
  if (source == CounterSource::kUnavailable) return "counters: unavailable";
  std::string out = StrFormat("counters (%s", CounterSourceToString(source));
  if (!detail.empty()) out += ", " + detail;
  if (!coverage.empty()) out += ", covers " + coverage;
  if (partial) out += ", PARTIAL";
  out += "):";
  if (cycles > 0) {
    out += StrFormat(" cycles=%llu", static_cast<unsigned long long>(cycles));
  }
  if (instructions > 0) {
    out += StrFormat(" instructions=%llu",
                     static_cast<unsigned long long>(instructions));
  }
  out += StrFormat(" branches=%llu branch_misses=%llu",
                   static_cast<unsigned long long>(branches),
                   static_cast<unsigned long long>(branch_misses));
  if (branches > 0) {
    out += StrFormat(" (%.2f%% missed)",
                     100.0 * static_cast<double>(branch_misses) /
                         static_cast<double>(branches));
  }
  return out;
}

// The per-engine name used in the metrics label: the short parseable
// spelling from ParseScanEngine, not the display name.
const char* ScanEngineLabel(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kSisdNoVec:
      return "sisd-novec";
    case ScanEngine::kSisdAutoVec:
      return "sisd-autovec";
    case ScanEngine::kScalarFused:
      return "scalar-fused";
    case ScanEngine::kAvx2Fused128:
      return "avx2-128";
    case ScanEngine::kAvx512Fused128:
      return "avx512-128";
    case ScanEngine::kAvx512Fused256:
      return "avx512-256";
    case ScanEngine::kAvx512Fused512:
      return "avx512-512";
    case ScanEngine::kBlockwise:
      return "blockwise";
    case ScanEngine::kJit:
      return "jit";
  }
  return "unknown";
}

obs::Counter* EngineExecutionCounter(ScanEngine engine) {
  // One-time resolution of all nine counters; after that a lookup is a
  // bounds check and an array index.
  static obs::Counter* const* counters = [] {
    static obs::Counter* table[9];
    for (int i = 0; i < 9; ++i) {
      const auto e = static_cast<ScanEngine>(i);
      table[i] = obs::MetricsRegistry::Global().GetCounter(
          StrFormat("fts_engine_executions_total{engine=\"%s\"}",
                    ScanEngineLabel(e)),
          "Chunk executions per scan engine");
    }
    return table;
  }();
  const auto index = static_cast<size_t>(engine);
  return counters[index < 9 ? index : 0];
}

const char* FallbackPolicyToString(FallbackPolicy policy) {
  switch (policy) {
    case FallbackPolicy::kStrict:
      return "strict";
    case FallbackPolicy::kLadder:
      return "ladder";
  }
  return "?";
}

std::string EngineChoice::ToString() const {
  if (engine == ScanEngine::kJit && jit_register_bits != 0) {
    return StrFormat("%s (%d-bit)", ScanEngineToString(engine),
                     jit_register_bits);
  }
  return ScanEngineToString(engine);
}

std::string ExecutionReport::EngineMix() const {
  std::vector<std::pair<std::string, size_t>> mix;
  for (const EngineChoice& choice : morsel_choices) {
    const std::string name = choice.ToString();
    bool found = false;
    for (auto& [mix_name, mix_count] : mix) {
      if (mix_name == name) {
        ++mix_count;
        found = true;
      }
    }
    if (!found) mix.emplace_back(name, 1);
  }
  std::vector<std::string> parts;
  parts.reserve(mix.size());
  for (const auto& [name, count] : mix) {
    parts.push_back(StrFormat("%s x%zu", name.c_str(), count));
  }
  return Join(parts, ", ");
}

std::string ExecutionReport::ToString() const {
  if (attempts.empty()) return "no scan engine executed";
  std::string out = StrFormat(
      "requested=%s executed=%s%s", requested.ToString().c_str(),
      executed.ToString().c_str(), degraded ? " [degraded]" : "");
  if (morsel_count > 0) {
    out += StrFormat(" workers=%d morsels=%zu engines={%s}", worker_count,
                     morsel_count, EngineMix().c_str());
  }
  if (chunks_pruned > 0 || stages_dropped > 0) {
    out += StrFormat(" pruned=%zu/%zu chunks", chunks_pruned, chunks_total);
    if (stages_dropped > 0) {
      out += StrFormat(" dropped=%zu stages", stages_dropped);
    }
    out += StrFormat(" (~%llu bytes skipped)",
                     static_cast<unsigned long long>(bytes_skipped));
  }
  if (rows_scanned > 0) {
    out += StrFormat(" rows=%llu matched=%llu",
                     static_cast<unsigned long long>(rows_scanned),
                     static_cast<unsigned long long>(rows_matched));
  }
  if (jit_cache_hits + jit_cache_misses > 0) {
    out += StrFormat(" jit_cache=%llu hit/%llu queued",
                     static_cast<unsigned long long>(jit_cache_hits),
                     static_cast<unsigned long long>(jit_cache_misses));
    if (jit_compile_millis > 0.0) {
      out += StrFormat(" compile=%.2fms", jit_compile_millis);
    }
  }
  if (counters.source != CounterSource::kUnavailable) {
    out += "\n  " + counters.ToString();
  }
  for (const EngineCounters& ec : engine_counters) {
    out += StrFormat(
        "\n  %s: regions=%llu cycles=%llu branch_misses=%llu",
        ec.choice.ToString().c_str(),
        static_cast<unsigned long long>(ec.regions),
        static_cast<unsigned long long>(ec.cycles),
        static_cast<unsigned long long>(ec.branch_misses));
  }
  for (const EngineAttempt& attempt : attempts) {
    out += StrFormat("\n  %s: %s", attempt.choice.ToString().c_str(),
                     attempt.status.ToString().c_str());
  }
  return out;
}

void ExecutionReport::AttributeEngineCounters(const EngineChoice& choice,
                                              uint64_t cycles,
                                              uint64_t instructions,
                                              uint64_t branches,
                                              uint64_t branch_misses) {
  for (EngineCounters& ec : engine_counters) {
    if (ec.choice == choice) {
      ++ec.regions;
      ec.cycles += cycles;
      ec.instructions += instructions;
      ec.branches += branches;
      ec.branch_misses += branch_misses;
      return;
    }
  }
  engine_counters.push_back(
      {choice, 1, cycles, instructions, branches, branch_misses});
}

std::vector<EngineChoice> DegradationLadder(ScanEngine requested,
                                            int jit_register_bits) {
  std::vector<EngineChoice> rungs;
  const auto add = [&rungs](ScanEngine engine, int bits = 0) {
    const EngineChoice choice{engine, bits};
    for (const EngineChoice& existing : rungs) {
      if (existing == choice) return;
    }
    rungs.push_back(choice);
  };
  // The static tail below the requested engine. Falls through so that each
  // starting rung inherits everything beneath it.
  const auto add_static_tail = [&add](ScanEngine from) {
    switch (from) {
      case ScanEngine::kAvx512Fused512:
      case ScanEngine::kAvx512Fused256:
      case ScanEngine::kAvx512Fused128:
        add(from);
        add(ScanEngine::kAvx2Fused128);
        add(ScanEngine::kScalarFused);
        add(ScanEngine::kSisdNoVec);
        break;
      case ScanEngine::kAvx2Fused128:
        add(ScanEngine::kAvx2Fused128);
        add(ScanEngine::kScalarFused);
        add(ScanEngine::kSisdNoVec);
        break;
      case ScanEngine::kBlockwise:
        add(ScanEngine::kBlockwise);
        add(ScanEngine::kScalarFused);
        add(ScanEngine::kSisdNoVec);
        break;
      case ScanEngine::kScalarFused:
        add(ScanEngine::kScalarFused);
        add(ScanEngine::kSisdNoVec);
        break;
      case ScanEngine::kSisdAutoVec:
        add(ScanEngine::kSisdAutoVec);
        add(ScanEngine::kSisdNoVec);
        break;
      case ScanEngine::kSisdNoVec:
        add(ScanEngine::kSisdNoVec);
        break;
      case ScanEngine::kJit:
        break;  // Handled by the caller.
    }
  };

  if (requested == ScanEngine::kJit) {
    const int start_bits = jit_register_bits == 0 ? 512 : jit_register_bits;
    for (const int bits : {512, 256, 128}) {
      if (bits <= start_bits) add(ScanEngine::kJit, bits);
    }
    add_static_tail(ScanEngine::kAvx512Fused512);
  } else {
    add_static_tail(requested);
  }
  return rungs;
}

}  // namespace fts
