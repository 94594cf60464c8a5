#ifndef FTS_SCAN_POSITIONS_FOLD_H_
#define FTS_SCAN_POSITIONS_FOLD_H_

#include <cstddef>
#include <vector>

#include "fts/common/status.h"
#include "fts/scan/projection_gather.h"
#include "fts/scan/scan_spec.h"
#include "fts/simd/agg_spec.h"
#include "fts/storage/pos_list.h"
#include "fts/storage/table.h"

namespace fts {

// The positions fold: folds aggregate terms over a chunk's ascending
// survivor positions for every chunk the fused aggregate kernels cannot
// fold in the kernel loop — compressed-domain predicates, or a term whose
// column is RLE, frame-of-reference, delta or an 8/16-bit plain column.
// Multi-step plans and plans with more than kMaxAggTerms terms fold their
// refined position lists through it too.
//
// Values are decoded by ProjectionGatherer's per-encoding decoders (the
// batch-gather kernels for plain/dictionary/bit-packed/FoR, the run
// cursor for RLE, survivor-block decode for delta, the typed loop for
// narrow widths) into a small batch buffer, kFoldBatch values at a time,
// and folded straight into AggAccumulators with the FoldSigned /
// FoldUnsigned / FoldFloat semantics of agg_spec.h. Nothing is boxed.
// Terms over the same column share one decode.
class PositionsFoldSink {
 public:
  // Survivors decoded per batch.
  static constexpr size_t kFoldBatch = 1024;

  // `terms` as in ScanSpec::aggregates (a column-less kCount is COUNT(*));
  // any number of terms.
  static StatusOr<PositionsFoldSink> Prepare(
      TablePtr table, const std::vector<AggregateSpec>& terms);

  // Folds the `n` ascending offsets of `chunk_id` into `accs[0..
  // num_terms())`, adding to what they hold. `fn` is the batch-gather
  // kernel for the kernel-decoded columns. Thread-safe: every call keeps
  // its decode state on its own stack.
  void Fold(GatherFn fn, ChunkId chunk_id, const ChunkOffset* positions,
            size_t n, AggAccumulator* accs, GatherStats* stats) const;

  size_t num_terms() const { return terms_.size(); }

 private:
  struct Term {
    AggOp op = AggOp::kCount;
    // Gatherer column the term folds; -1 for COUNT terms.
    int column = -1;
  };

  PositionsFoldSink(ProjectionGatherer gatherer, std::vector<Term> terms)
      : gatherer_(std::move(gatherer)), terms_(std::move(terms)) {}

  // One column per distinct value-term column.
  ProjectionGatherer gatherer_;
  std::vector<Term> terms_;
};

}  // namespace fts

#endif  // FTS_SCAN_POSITIONS_FOLD_H_
