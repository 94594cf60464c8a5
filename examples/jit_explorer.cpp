// JIT explorer: shows the Section V pipeline in isolation — what source
// the code generator emits for a chain signature, what compiling it costs,
// and how the signature cache amortizes that cost.
//
// Usage: jit_explorer [signature]
//   signature: comma-separated stages "type:op", e.g. "i32:=,i32:=" or
//   "i32:<,f64:>=,u32:=". Types: i32 u32 f32 i64 u64 f64.
//   Ops: = != < <= > >=.

#include <cstdio>
#include <cstring>
#include <string>

#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/exec/parallel_scan.h"
#include "fts/jit/jit_cache.h"
#include "fts/storage/data_generator.h"

namespace {

using fts::CompareOp;
using fts::ScanElementType;

bool ParseStage(const std::string& text, fts::JitStageSignature* out) {
  const auto parts = fts::Split(text, ':');
  if (parts.size() != 2) return false;
  if (parts[0] == "i32") out->type = ScanElementType::kI32;
  else if (parts[0] == "u32") out->type = ScanElementType::kU32;
  else if (parts[0] == "f32") out->type = ScanElementType::kF32;
  else if (parts[0] == "i64") out->type = ScanElementType::kI64;
  else if (parts[0] == "u64") out->type = ScanElementType::kU64;
  else if (parts[0] == "f64") out->type = ScanElementType::kF64;
  else return false;
  if (parts[1] == "=") out->op = CompareOp::kEq;
  else if (parts[1] == "!=") out->op = CompareOp::kNe;
  else if (parts[1] == "<") out->op = CompareOp::kLt;
  else if (parts[1] == "<=") out->op = CompareOp::kLe;
  else if (parts[1] == ">") out->op = CompareOp::kGt;
  else if (parts[1] == ">=") out->op = CompareOp::kGe;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec = (argc > 1) ? argv[1] : "i32:=,i32:=";

  fts::JitScanSignature signature;
  signature.register_bits = 512;
  for (const std::string& part : fts::Split(spec, ',')) {
    fts::JitStageSignature stage;
    if (!ParseStage(part, &stage)) {
      std::fprintf(stderr, "cannot parse stage '%s'\n", part.c_str());
      return 1;
    }
    signature.stages.push_back(stage);
  }

  std::printf("Signature: %s\n\n", signature.CacheKey().c_str());

  auto source = fts::GenerateFusedScanSource(signature);
  if (!source.ok()) {
    std::fprintf(stderr, "codegen failed: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }
  std::printf("---- generated operator source ----\n%s\n", source->c_str());

  fts::JitCache cache;
  fts::Stopwatch cold;
  auto first = cache.GetOrCompile(signature);
  if (!first.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }
  std::printf("---- compilation ----\n");
  std::printf("cold compile + dlopen: %8.1f ms\n", cold.ElapsedMillis());

  fts::Stopwatch warm;
  auto second = cache.GetOrCompile(signature);
  FTS_CHECK(second.ok());
  std::printf("cache hit:             %8.3f ms\n", warm.ElapsedMillis());
  const auto stats = cache.stats();
  std::printf("cache stats: %llu hits, %llu misses, %.1f ms total compile\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              stats.total_compile_millis);

  // Time the compiled operator against a generated table when the
  // signature is the classic 2-predicate int32 equality chain.
  if (signature.CacheKey() == "512:i32=;i32=") {
    fts::ScanTableOptions options;
    options.rows = 4'000'000;
    options.selectivities = {0.01, 0.5};
    const auto generated = fts::MakeScanTable(options);
    fts::ScanSpec scan;
    scan.predicates = {{"c0", CompareOp::kEq, fts::Value(int32_t{5})},
                       {"c1", CompareOp::kEq, fts::Value(int32_t{2})}};
    fts::Stopwatch run;
    const auto scanner = fts::TableScanner::Prepare(generated.table, scan);
    FTS_CHECK(scanner.ok());
    fts::ParallelScanOptions scan_options;
    scan_options.requested = {fts::ScanEngine::kJit, 512};
    scan_options.fallback = fts::FallbackPolicy::kStrict;
    scan_options.threads = 1;
    scan_options.cache = &cache;
    auto matches = fts::ExecuteParallelScan(*scanner, scan_options);
    FTS_CHECK(matches.ok());
    std::printf(
        "\nexecuted on 4M rows: %llu matches in %.3f ms "
        "(ground truth %llu)\n",
        static_cast<unsigned long long>(matches->TotalMatches()),
        run.ElapsedMillis(),
        static_cast<unsigned long long>(generated.stage_matches.back()));
  }
  return 0;
}
