#include "fts/jit/jit_scan_engine.h"

#include <algorithm>
#include <numeric>

#include "fts/common/cpu_info.h"
#include "fts/common/macros.h"
#include "fts/jit/code_generator.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"
#include "fts/simd/kernels_scalar.h"
#include "fts/storage/data_type.h"
#include "fts/storage/rle_column.h"

namespace fts {

namespace {

// Fills the generated RLE operator's per-stage views and search-value
// slots from a compressed chain (every stage already proven RLE by
// SignatureForRleChain).
void MarshalRleStages(const TableScanner::ChunkPlan& plan,
                      const JitScanSignature& signature, JitRleView* views,
                      const void** columns, unsigned char* values) {
  for (size_t s = 0; s < plan.compressed.size(); ++s) {
    const CompressedScanStage& stage = plan.compressed[s];
    DispatchDataType(stage.column->data_type(), [&](auto tag) {
      using T = decltype(tag);
      const auto& column = static_cast<const RleColumn<T>&>(*stage.column);
      views[s].run_values = column.run_values().data();
      views[s].run_ends = column.run_ends().data();
      views[s].run_count = column.run_count();
    });
    columns[s] = &views[s];
    const ScanValue value =
        MakeScanValue(signature.stages[s].type, stage.value);
    static_assert(sizeof(ScanValue) == kJitValueSlotBytes);
    __builtin_memcpy(values + s * kJitValueSlotBytes, &value,
                     kJitValueSlotBytes);
  }
}

// The generated operator classifies runs inline and reports no breakdown;
// credit every stage's runs as classified so the compressed-domain
// counters stay meaningful when JIT serves the chunk.
void CreditRleRuns(const TableScanner::ChunkPlan& plan,
                   CompressedScanStats* stats) {
  for (const CompressedScanStage& stage : plan.compressed) {
    DispatchDataType(stage.column->data_type(), [&](auto tag) {
      using T = decltype(tag);
      stats->rle_runs_classified +=
          static_cast<const RleColumn<T>&>(*stage.column).run_count();
    });
  }
}

using MorselCount = std::optional<size_t>;

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

// Runs an all-RLE chain through the run-coiteration operator. Empty
// `aggs` materializes positions into `out`; all-COUNT `aggs` only counts,
// and `out` is the caller's AggAccumulator array. Mixed compressed/kernel
// chains fail with InvalidArgument (the ladder demotes them to the
// interpreted range path), as do non-RLE compressed stages.
JitMorselResult RunRleChain(JitCache& cache,
                            const TableScanner::ChunkPlan& plan,
                            int register_bits, bool wait,
                            std::vector<JitAggSignature> aggs, uint32_t* out,
                            ChunkStats* stats, QueryContext* ctx) {
  if (!plan.stages.empty()) {
    return Status::InvalidArgument(
        "JIT compiles all-RLE chains only; mixed compressed/kernel "
        "chunks run on the interpreted range path");
  }
  FTS_ASSIGN_OR_RETURN(JitScanSignature signature,
                       SignatureForRleChain(plan.compressed, register_bits));
  signature.aggs = std::move(aggs);
  FTS_ASSIGN_OR_RETURN(const JitCache::Entry entry,
                       Kernel(cache, signature, wait, stats, ctx));
  if (entry.fn == nullptr) return MorselCount();
  JitRleView views[kMaxScanStages];
  const void* columns[kMaxScanStages];
  alignas(8) unsigned char values[kMaxScanStages * kJitValueSlotBytes] = {};
  MarshalRleStages(plan, signature, views, columns, values);
  obs::TraceSpan span("scan_chunk", "scan");
  const size_t count = entry.fn(columns, values, plan.row_count, out);
  CreditRleRuns(plan, &stats->compressed);
  {
    const obs::EngineMetrics& metrics = obs::Metrics();
    metrics.rows_scanned_total->Add(plan.row_count);
    metrics.rows_emitted_total->Add(count);
    EngineExecutionCounter(ScanEngine::kJit)->Increment();
  }
  if (span.active()) {
    span.AddArg("engine", "JIT Fused (RLE)");
    span.AddArg("register_bits", static_cast<uint64_t>(register_bits));
    span.AddArg("rows", static_cast<uint64_t>(plan.row_count));
    span.AddArg("matches", static_cast<uint64_t>(count));
  }
  return MorselCount(count);
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
  ChunkStats unused;
  if (stats == nullptr) stats = &unused;
  if (!plan.compressed.empty()) {
    return RunRleChain(cache, plan, register_bits, wait_for_compile, {}, out,
                       stats, ctx);
  }
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
  std::vector<JitAggSignature> aggs;
  aggs.reserve(num_terms);
  for (const AggTerm& term : plan.agg_terms) {
    aggs.push_back({term.op, term.type, term.domain});
  }
  // The accumulator array doubles as the generated operator's `out`
  // argument; its layout is mirrored field-for-field in generated code.
  uint32_t* const out = reinterpret_cast<uint32_t*>(accs);
  if (plan.agg_needs_sink) {
    // Value terms over a compressed-domain chain, or over a column the
    // fold kernels cannot read, fold through the positions sink; no
    // generated operator covers that shape (the morsel executor runs such
    // chunks on the static path).
    return Status::InvalidArgument(
        "JIT aggregate operators do not fold through positions; the chunk "
        "runs the positions fold on a static engine");
  }
  if (!plan.compressed.empty()) {
    // COUNT terms ride the all-RLE run-coiteration operator.
    FTS_ASSIGN_OR_RETURN(
        const MorselCount count,
        RunRleChain(cache, plan, register_bits, wait_for_compile,
                    std::move(aggs), out, stats, ctx));
    if (count.has_value()) ++stats->agg_kernel_chunks;
    return count;
  }
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
  signature.aggs = std::move(aggs);
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
  const size_t count = entry.fn(columns, values, plan.row_count, out);
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
