#include "fts/jit/jit_scan_engine.h"

#include <algorithm>
#include <numeric>

#include "fts/common/cpu_info.h"
#include "fts/common/macros.h"
#include "fts/jit/code_generator.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"
#include "fts/simd/kernels_scalar.h"

namespace fts {

namespace {

using MorselCount = std::optional<size_t>;

// No generated operator covers a compressed-domain chunk: the morsel
// executor runs it on a static engine's range path and never sends it here.
Status RejectCompressed(const TableScanner::ChunkPlan& plan) {
  if (plan.compressed.empty()) return Status::Ok();
  return Status::InvalidArgument(
      "compressed-domain chunks run the range path on a static engine");
}

// Looks up the operator for `signature` — tiered, or waiting for the
// compile when `wait` — and credits the lookup to `stats`. The entry's fn
// is null while the compile is pending.
StatusOr<JitCache::Entry> Kernel(JitCache& cache,
                                 const JitScanSignature& signature, bool wait,
                                 ChunkStats* stats, QueryContext* ctx) {
  FTS_ASSIGN_OR_RETURN(JitCache::Entry entry,
                       wait ? cache.GetOrCompile(signature, ctx)
                            : cache.Lookup(signature));
  stats->jit_compile_millis += entry.compile_millis;
  if (entry.cache_hit) ++stats->jit_cache_hits;
  if (entry.queued) ++stats->jit_compiles_queued;
  return entry;
}

}  // namespace

JitMorselResult JitExecuteChunk(JitCache& cache,
                                const TableScanner::ChunkPlan& plan,
                                int register_bits, bool wait_for_compile,
                                ChunkOffset* out, ChunkStats* stats,
                                QueryContext* ctx) {
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    return Status::Unavailable(
        "JIT scan generates AVX-512 code; CPU lacks F/BW/DQ/VL");
  }
  if (plan.impossible || plan.row_count == 0) return MorselCount(0);
  FTS_RETURN_IF_ERROR(RejectCompressed(plan));
  ChunkStats unused;
  if (stats == nullptr) stats = &unused;
  if (plan.stages.empty()) {
    std::iota(out, out + plan.row_count, ChunkOffset{0});
    return MorselCount(plan.row_count);
  }

  // One compiled operator per chain signature; chunks of the same table
  // usually share it (dictionary rewrites can vary per chunk).
  const JitScanSignature signature =
      SignatureForStages(plan.stages, register_bits);
  FTS_ASSIGN_OR_RETURN(
      const JitCache::Entry entry,
      Kernel(cache, signature, wait_for_compile, stats, ctx));
  if (entry.fn == nullptr) return MorselCount();

  const void* columns[kMaxScanStages];
  alignas(8) unsigned char values[kMaxScanStages * kJitValueSlotBytes] = {};
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    columns[s] = plan.stages[s].data;
    // ScanValue is an 8-byte union; copy its raw bits into the slot.
    static_assert(sizeof(ScanValue) == kJitValueSlotBytes);
    __builtin_memcpy(values + s * kJitValueSlotBytes, &plan.stages[s].value,
                     kJitValueSlotBytes);
  }
  obs::TraceSpan span("scan_chunk", "scan");
  const size_t count = entry.fn(columns, values, plan.row_count, out);
  {
    const obs::EngineMetrics& metrics = obs::Metrics();
    metrics.rows_scanned_total->Add(plan.row_count);
    metrics.rows_emitted_total->Add(count);
    EngineExecutionCounter(ScanEngine::kJit)->Increment();
  }
  if (span.active()) {
    span.AddArg("engine", "JIT Fused");
    span.AddArg("register_bits", static_cast<uint64_t>(register_bits));
    span.AddArg("rows", static_cast<uint64_t>(plan.row_count));
    span.AddArg("matches", static_cast<uint64_t>(count));
  }
  return MorselCount(count);
}

JitMorselResult JitExecuteChunkAggregate(
    JitCache& cache, const TableScanner::ChunkPlan& plan, int register_bits,
    bool wait_for_compile, AggAccumulator* accs, ChunkStats* stats,
    QueryContext* ctx) {
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    return Status::Unavailable(
        "JIT scan generates AVX-512 code; CPU lacks F/BW/DQ/VL");
  }
  const size_t num_terms = plan.agg_terms.size();
  if (num_terms == 0) {
    return Status::InvalidArgument("chunk plan carries no aggregate terms");
  }
  for (size_t i = 0; i < num_terms; ++i) accs[i] = AggAccumulator{};
  if (plan.impossible || plan.row_count == 0) return MorselCount(0);
  ChunkStats unused;
  if (stats == nullptr) stats = &unused;
  if (plan.agg_zone_shortcut) {
    std::copy(plan.agg_zone_partials.begin(), plan.agg_zone_partials.end(),
              accs);
    ++stats->agg_kernel_chunks;
    return MorselCount(plan.row_count);
  }
  if (plan.agg_positions) {
    // Value terms over a compressed-domain chain, or over a column the
    // fold kernels cannot read, fold through the positions sink; no
    // generated operator covers that shape (the morsel executor runs such
    // chunks on the static path).
    return Status::InvalidArgument(
        "JIT aggregate operators do not fold through positions; the chunk "
        "runs the positions fold on a static engine");
  }
  FTS_RETURN_IF_ERROR(RejectCompressed(plan));
  for (const AggTerm& term : plan.agg_terms) {
    if (term.dict != nullptr || term.packed_bits != 0) {
      // The ladder demotes this morsel to the static kernels, which fold
      // dictionary / bit-packed terms through their scalar decode path.
      return Status::InvalidArgument(
          "JIT aggregate operators fold plain columns only");
    }
  }
  if (plan.stages.empty()) {
    // Every row matches and there is no chain to specialize; the scalar
    // reference fold is already a tight typed loop.
    ++stats->agg_kernel_chunks;
    return MorselCount(FusedAggScanScalar(nullptr, 0, plan.row_count,
                                          plan.agg_terms.data(), num_terms,
                                          accs));
  }

  JitScanSignature signature = SignatureForStages(plan.stages, register_bits);
  signature.aggs.reserve(num_terms);
  for (const AggTerm& term : plan.agg_terms) {
    signature.aggs.push_back({term.op, term.type, term.domain});
  }
  FTS_ASSIGN_OR_RETURN(
      const JitCache::Entry entry,
      Kernel(cache, signature, wait_for_compile, stats, ctx));
  if (entry.fn == nullptr) return MorselCount();

  const void* columns[kMaxScanStages + kMaxAggTerms];
  alignas(8) unsigned char values[kMaxScanStages * kJitValueSlotBytes] = {};
  FTS_CHECK(plan.stages.size() <= kMaxScanStages);
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    columns[s] = plan.stages[s].data;
    static_assert(sizeof(ScanValue) == kJitValueSlotBytes);
    __builtin_memcpy(values + s * kJitValueSlotBytes, &plan.stages[s].value,
                     kJitValueSlotBytes);
  }
  // Aggregate columns ride after the stage columns (null for COUNT terms;
  // the generated code never reads those slots).
  for (size_t t = 0; t < num_terms; ++t) {
    columns[plan.stages.size() + t] = plan.agg_terms[t].data;
  }
  obs::TraceSpan span("scan_chunk_agg", "scan");
  // The accumulator array doubles as the generated operator's `out`
  // argument; its layout is mirrored field-for-field in generated code.
  const size_t count = entry.fn(columns, values, plan.row_count,
                                reinterpret_cast<uint32_t*>(accs));
  ++stats->agg_kernel_chunks;
  {
    const obs::EngineMetrics& metrics = obs::Metrics();
    metrics.rows_scanned_total->Add(plan.row_count);
    metrics.rows_emitted_total->Add(count);
    EngineExecutionCounter(ScanEngine::kJit)->Increment();
  }
  if (span.active()) {
    span.AddArg("engine", "JIT Fused");
    span.AddArg("register_bits", static_cast<uint64_t>(register_bits));
    span.AddArg("rows", static_cast<uint64_t>(plan.row_count));
    span.AddArg("matches", static_cast<uint64_t>(count));
  }
  return MorselCount(count);
}

}  // namespace fts
