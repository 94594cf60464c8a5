// Section V economics: what does runtime code generation cost, and when
// does it pay off? Measures per-signature compile time, cache-hit cost,
// and compares the JIT-generated operator's runtime against the static
// AVX-512 kernel (identical algorithm, compile-time-specialized stages vs
// in-loop dispatched stages).

#include <cstdio>

#include "bench/bench_util.h"
#include "fts/jit/jit_cache.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"

namespace {
using namespace fts::bench;
}  // namespace

int main() {
  PrintTitle("Section V -- JIT code generation: cost and benefit");
  if (!fts::ScanEngineAvailable(fts::ScanEngine::kJit)) {
    std::printf("JIT engine unavailable (needs AVX-512).\n");
    return 0;
  }
  const size_t rows = ScaleRows(std::min(MaxRows(), size_t{8'000'000}));
  const int reps = Reps();

  // --- Compile cost per chain length and register width.
  std::printf("\nCompile cost (generate + g++ + dlopen), one signature "
              "each:\n");
  std::printf("%-10s %12s %12s %14s\n", "#preds", "width", "source(B)",
              "compile(ms)");
  PrintRule('-', 52);
  for (const int width : {128, 256, 512}) {
    for (size_t n = 1; n <= 5; ++n) {
      fts::JitScanSignature signature;
      signature.register_bits = width;
      for (size_t s = 0; s < n; ++s) {
        signature.stages.push_back(
            {fts::ScanElementType::kI32, fts::CompareOp::kEq});
      }
      // Ops vary per stage so each signature is distinct in the cache.
      signature.stages[0].op = fts::CompareOp::kGe;
      const auto source = fts::GenerateFusedScanSource(signature);
      FTS_CHECK(source.ok());
      fts::JitCache cache;
      const auto entry = cache.GetOrCompile(signature);
      FTS_CHECK(entry.ok());
      std::printf("%-10zu %12d %12zu %14.1f\n", n, width, source->size(),
                  entry->module->compile_millis());
    }
  }

  // --- Cache hit cost.
  {
    fts::JitCache cache;
    fts::JitScanSignature signature;
    signature.stages = {{fts::ScanElementType::kI32, fts::CompareOp::kEq},
                        {fts::ScanElementType::kI32, fts::CompareOp::kEq}};
    FTS_CHECK(cache.GetOrCompile(signature).ok());
    const double hit_ms = MedianMillis(1000, [&] {
      fts::DoNotOptimizeAway(cache.GetOrCompile(signature).ok());
    });
    std::printf("\ncache hit: %.4f ms (vs ~hundreds of ms cold)\n", hit_ms);
  }

  // --- JIT vs static kernel runtime.
  std::printf("\nOperator runtime on %zu rows (2 eq-predicates, 1%% then "
              "50%%):\n",
              rows);
  fts::ScanTableOptions options;
  options.rows = rows;
  options.selectivities = {0.01, 0.5};
  options.seed = 0x717;
  const fts::GeneratedScanTable generated = fts::MakeScanTable(options);
  fts::ScanSpec spec;
  spec.predicates = {
      {"c0", fts::CompareOp::kEq, fts::Value(generated.search_values[0])},
      {"c1", fts::CompareOp::kEq, fts::Value(generated.search_values[1])}};

  auto scanner = fts::TableScanner::Prepare(generated.table, spec);
  FTS_CHECK(scanner.ok());
  const fts::EngineChoice static_engine{fts::ScanEngine::kAvx512Fused512, 0};
  const double static_ms = MedianMillis(reps, [&] {
    fts::DoNotOptimizeAway(
        RunSerial(fts::ExecuteParallelScanCount, *scanner, static_engine)
            .ok());
  });

  const fts::EngineChoice jit{fts::ScanEngine::kJit, 512};
  FTS_CHECK(*RunSerial(fts::ExecuteParallelScanCount, *scanner, jit) ==
            generated.stage_matches.back());
  const double jit_count_ms = MedianMillis(reps, [&] {
    fts::DoNotOptimizeAway(
        RunSerial(fts::ExecuteParallelScanCount, *scanner, jit).ok());
  });
  // Warm the cache.
  FTS_CHECK(RunSerial(fts::ExecuteParallelScan, *scanner, jit).ok());
  const double jit_ms = MedianMillis(reps, [&] {
    fts::DoNotOptimizeAway(
        RunSerial(fts::ExecuteParallelScan, *scanner, jit).ok());
  });

  std::printf("%-34s %10.3f ms\n", "static AVX-512 Fused (512)", static_ms);
  std::printf("%-34s %10.3f ms (warm cache)\n", "JIT AVX-512 Fused (512)",
              jit_ms);
  std::printf("%-34s %10.3f ms (warm cache)\n",
              "JIT count-only (no materialize)", jit_count_ms);
  std::printf(
      "\nbreak-even: compile cost / per-scan saving = scans needed before "
      "JIT wins;\nwith cached operators the cost is paid once per "
      "signature (Section V).\n");
  return 0;
}
