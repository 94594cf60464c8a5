#ifndef FTS_SCAN_TABLE_SCAN_H_
#define FTS_SCAN_TABLE_SCAN_H_

#include <array>
#include <memory>
#include <vector>

#include "fts/common/status.h"
#include "fts/scan/compressed_scan.h"
#include "fts/scan/positions_fold.h"
#include "fts/scan/scan_engine.h"
#include "fts/scan/scan_spec.h"
#include "fts/simd/agg_spec.h"
#include "fts/simd/scan_stage.h"
#include "fts/storage/pos_list.h"
#include "fts/storage/table.h"

namespace fts {

// What one chunk execution did. The chunk primitives (TableScanner's
// ExecuteChunk*, fts/jit's JitExecuteChunk*) add to the caller's
// ChunkStats; the scan executor keeps one per morsel and merges them into
// the ExecutionReport in chunk order, so every count describes one run.
struct ChunkStats {
  CompressedScanStats compressed;
  // Which fold an aggregate chunk took: without materializing positions —
  // inside a fused or JIT kernel loop, from zone maps, or as the range
  // path's COUNT (kernel) — or through the PositionsFoldSink (positions),
  // whose delta decoder prefix-reconstructed `agg_delta_blocks` blocks.
  uint64_t agg_kernel_chunks = 0;
  uint64_t agg_positions_chunks = 0;
  uint64_t agg_delta_blocks = 0;
  // JIT cache attribution: lookups served by a compiled operator, lookups
  // that queued a compile, and the compile time waited for.
  uint64_t jit_cache_hits = 0;
  uint64_t jit_compiles_queued = 0;
  double jit_compile_millis = 0.0;
};

// Executable form of a conjunctive scan over one table. Prepare() resolves
// column names, casts search values to column types, and rewrites
// predicates on dictionary-encoded columns into code-space predicates
// (fts/storage/dictionary_column.h). The ExecuteChunk* primitives then run
// any static ScanEngine over one prepared chunk; the scan executor
// (fts/exec/parallel_scan.h) drives them chunk by chunk.
//
// The prepared scanner borrows the table's column data; the table must
// outlive it (it holds a TablePtr, so normal shared_ptr usage is safe).
class TableScanner {
 public:
  // Per-chunk prepared state.
  struct ChunkPlan {
    // Kernel stages for this chunk, after dropping always-true predicates.
    // Empty + compressed empty + !impossible => every row matches.
    // When the cost model is active (FTS_ADAPTIVE, default on) the stages
    // are re-ranked cheapest-effective-first per chunk — ascending
    // cost/(1 - selectivity) from this chunk's zone-map estimates — which
    // is result-invariant for a conjunction.
    std::vector<ScanStage> stages;
    // Estimated per-stage selectivities, parallel to `stages` (and kept
    // in re-ranked order). From zone-map/code-space bounds under the
    // uniform assumption; 0.5 when no bounds exist.
    std::vector<double> stage_sel;
    // Estimated selectivities of the compressed-domain stages, parallel
    // to `compressed`.
    std::vector<double> compressed_sel;
    // Expected matches of the whole conjunction (independence assumption;
    // 0 for impossible chunks).
    double est_matches = 0.0;
    // True when re-ranking changed this chunk's stage order relative to
    // the spec's predicate order.
    bool reordered = false;
    // Predicates over RLE/delta columns, evaluated in the compressed
    // domain (fts/scan/compressed_scan.h). When non-empty, every engine —
    // a JIT rung included — routes the chunk through
    // ExecuteCompressedChunk: the compressed stages produce candidate
    // ranges and `stages` refines them row-wise.
    std::vector<CompressedScanStage> compressed;
    // Some predicate can never match in this chunk.
    bool impossible = false;
    size_t row_count = 0;

    // Aggregate pushdown (populated only when the spec carries
    // aggregates). `agg_terms` parallels ScanSpec::aggregates; dictionary
    // and bit-packed terms point `dict` into `agg_dicts`-owned widened
    // decode tables (shared so ChunkPlan copies stay valid). A term whose
    // column the fold kernels cannot read (RLE, FoR, delta, 8/16-bit
    // plain) keeps only its op and domain (`data` null).
    std::vector<AggTerm> agg_terms;
    std::vector<std::shared_ptr<const void>> agg_dicts;
    // The chunk folds through positions: its survivors are collected into
    // a worker-local list and folded by the scanner's PositionsFoldSink,
    // because some value (non-COUNT) term reads a column the fold kernels
    // cannot, or the chunk has compressed-domain stages. No generated JIT
    // operator covers such a chunk. Otherwise the fused aggregate kernels
    // fold it, or — every term COUNT over compressed-domain stages — the
    // range path counts it.
    bool agg_positions = false;
    // Every conjunct proved tautological and every term answerable from
    // the zone maps alone: ExecuteChunkAggregate copies
    // `agg_zone_partials` without touching the chunk's data. SUM terms
    // always force a scan (zone maps hold no sums).
    bool agg_zone_shortcut = false;
    std::vector<AggAccumulator> agg_zone_partials;
  };

  // Result of an aggregate-pushdown execution: one accumulator per
  // ScanSpec aggregate, merged across chunks in chunk order, plus the
  // conjunction's match count.
  struct AggResult {
    std::vector<AggAccumulator> accumulators;
    uint64_t matched = 0;
  };

  struct PrepareOptions {
    // Consult chunk zone maps (fts/storage/zone_map.h) while planning:
    // disproved conjuncts mark the chunk impossible, tautological conjuncts
    // are dropped from its fused chain. Off only for apples-to-apples
    // benchmarking of the unpruned scan (bench/fig9_zone_pruning.cc).
    bool use_zone_maps = true;
  };

  // What zone maps and dictionary translation proved during Prepare().
  // `bytes_skipped` estimates the predicate-column bytes the pruned chunks
  // and dropped stages would otherwise have read.
  struct PruningSummary {
    size_t chunks_total = 0;
    size_t chunks_pruned = 0;
    size_t stages_dropped = 0;
    uint64_t bytes_skipped = 0;
  };

  static StatusOr<TableScanner> Prepare(TablePtr table, const ScanSpec& spec);
  static StatusOr<TableScanner> Prepare(TablePtr table, const ScanSpec& spec,
                                        const PrepareOptions& options);

  // Runs one chunk's plan — the morsel primitive the scan executor
  // (fts/exec/parallel_scan.h) schedules. `out` must have capacity for
  // row_count + kScanOutputSlack positions; returns the match count.
  // Impossible chunks return 0; predicate-free chunks emit every row.
  // Fails when `engine` is not available on this CPU or is kJit (the JIT
  // chunk primitives live in fts/jit). A compressed-domain chunk adds its
  // run/block counters to `stats` (nullable).
  StatusOr<size_t> ExecuteChunk(ScanEngine engine, ChunkId chunk_id,
                                ChunkOffset* out,
                                ChunkStats* stats = nullptr) const;

  // Refine morsel primitive (a later step of a non-fused plan): keeps the
  // `n` ascending offsets at `in` that satisfy this chunk's conjunction,
  // evaluated row-at-a-time at each survivor, and writes them to `out`
  // (capacity n; may alias `in`). Returns the survivor count. Impossible
  // chunks keep nothing; predicate-free chunks keep every offset.
  size_t RefineChunk(ChunkId chunk_id, const ChunkOffset* in, size_t n,
                     ChunkOffset* out) const;

  // Aggregate-pushdown morsel primitive: evaluates the chunk's conjunction
  // and folds the spec's aggregates. `accs` must hold
  // spec.aggregates.size() slots; they are reset to fresh accumulators
  // before folding. Returns the match count. Zone-shortcut chunks (see
  // ChunkPlan) are answered without touching column data; impossible
  // chunks contribute nothing. `agg_positions` chunks collect their
  // survivors with `engine` into a worker-local list and fold them through
  // the PositionsFoldSink; a COUNT-only chunk with compressed-domain stages
  // counts its survivors on the range path without materializing them;
  // every other chunk folds inside the fused aggregate kernel loop
  // (SISD/Blockwise engines run the scalar reference fold). The fold taken
  // and its counters go to `stats` (nullable). Requires Prepare() to have
  // seen a spec with aggregates.
  StatusOr<size_t> ExecuteChunkAggregate(ScanEngine engine, ChunkId chunk_id,
                                         AggAccumulator* accs,
                                         ChunkStats* stats = nullptr) const;

  // Number of aggregate terms the prepared spec carries (0 = the spec had
  // no aggregates and the aggregate entry points will fail).
  size_t num_agg_terms() const { return num_agg_terms_; }

  const std::vector<ChunkPlan>& chunk_plans() const { return chunk_plans_; }
  const PruningSummary& pruning() const { return pruning_; }
  const TablePtr& table() const { return table_; }

  // Per-stage encoding mix over all prepared chunk stages (indexed by
  // ColumnEncoding; includes dropped/disproved stages' columns so the mix
  // reflects what the query touches, not what survived pruning).
  const std::array<uint64_t, 6>& stage_encodings() const {
    return stage_encodings_;
  }
  // True when any chunk plan carries compressed-domain stages.
  bool has_compressed_stages() const { return has_compressed_stages_; }

  // The query lifecycle context captured from the spec at Prepare() (null
  // when the spec carried none). Chunk primitives account scratch buffers
  // against its memory budget; the scan executor reads it for its morsel
  // boundaries.
  QueryContext* context() const { return context_; }

  // ---- Cost model (fts/cost, DESIGN.md §14) ----

  // True when FTS_ADAPTIVE left the model on at Prepare (chains were
  // re-rank-eligible and estimates were computed).
  bool model_active() const { return model_active_; }
  size_t chunks_reordered() const { return chunks_reordered_; }
  // Model-estimated total matches across non-pruned chunks.
  double est_rows() const { return est_rows_; }

 private:
  TableScanner(TablePtr table, std::vector<ChunkPlan> chunk_plans,
               PruningSummary pruning, size_t num_agg_terms,
               QueryContext* context,
               std::array<uint64_t, 6> stage_encodings)
      : table_(std::move(table)),
        chunk_plans_(std::move(chunk_plans)),
        pruning_(pruning),
        num_agg_terms_(num_agg_terms),
        context_(context),
        stage_encodings_(stage_encodings) {
    for (const ChunkPlan& plan : chunk_plans_) {
      if (!plan.compressed.empty()) has_compressed_stages_ = true;
    }
  }

  // Runs one runnable chunk's conjunction with a static `engine`, writing
  // the ascending matching offsets to `out` (row_count + kScanOutputSlack
  // capacity); returns the match count. A compressed-domain chunk adds its
  // run/block counters to `stats`.
  size_t CollectChunk(ScanEngine engine, const ChunkPlan& plan,
                      ChunkOffset* out, CompressedScanStats* stats) const;

  TablePtr table_;
  std::vector<ChunkPlan> chunk_plans_;
  PruningSummary pruning_;
  size_t num_agg_terms_ = 0;
  QueryContext* context_ = nullptr;
  std::array<uint64_t, 6> stage_encodings_{};
  bool has_compressed_stages_ = false;
  // Folds the agg_positions chunks; null when no chunk needs it.
  std::shared_ptr<const PositionsFoldSink> agg_sink_;
  // Cost model state (set by Prepare).
  bool model_active_ = false;
  size_t chunks_reordered_ = 0;
  double est_rows_ = 0.0;
};

}  // namespace fts

#endif  // FTS_SCAN_TABLE_SCAN_H_
