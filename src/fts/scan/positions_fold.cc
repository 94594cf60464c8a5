#include "fts/scan/positions_fold.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>

namespace fts {
namespace {

// Folds `n` (> 0) decoded values of one term into `acc` with the
// FoldSigned / FoldUnsigned / FoldFloat semantics: integer sums wrap mod
// 2^64 after sign- or zero-extension, float sums add in order in double,
// and a NaN never wins a float MIN/MAX comparison. MIN/MAX reduce in the
// element type first (the loops vectorize), then widen once per batch.
template <typename T>
void FoldValues(AggOp op, const T* values, size_t n, AggAccumulator& acc) {
  if (op == AggOp::kCount) return;
  if (op == AggOp::kSum) {
    if constexpr (std::is_floating_point_v<T>) {
      double sum = acc.sum_double;
      for (size_t i = 0; i < n; ++i) sum += static_cast<double>(values[i]);
      acc.sum_double = sum;
    } else {
      using Wide = std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>;
      uint64_t sum = acc.sum_bits;
      for (size_t i = 0; i < n; ++i) {
        sum += static_cast<uint64_t>(static_cast<Wide>(values[i]));
      }
      acc.sum_bits = sum;
    }
    return;
  }
  const bool min = op == AggOp::kMin;
  T best = min ? (std::is_floating_point_v<T>
                      ? std::numeric_limits<T>::infinity()
                      : std::numeric_limits<T>::max())
               : (std::is_floating_point_v<T>
                      ? -std::numeric_limits<T>::infinity()
                      : std::numeric_limits<T>::lowest());
  if (min) {
    for (size_t i = 0; i < n; ++i) best = values[i] < best ? values[i] : best;
  } else {
    for (size_t i = 0; i < n; ++i) best = values[i] > best ? values[i] : best;
  }
  if constexpr (std::is_floating_point_v<T>) {
    FoldFloat(op, static_cast<double>(best), acc);
  } else if constexpr (std::is_signed_v<T>) {
    FoldSigned(op, static_cast<int64_t>(best), acc);
  } else {
    FoldUnsigned(op, static_cast<uint64_t>(best), acc);
  }
}

}  // namespace

StatusOr<PositionsFoldSink> PositionsFoldSink::Prepare(
    TablePtr table, const std::vector<AggregateSpec>& terms) {
  std::vector<size_t> columns;
  std::vector<Term> resolved;
  resolved.reserve(terms.size());
  for (const AggregateSpec& spec : terms) {
    Term term;
    term.op = spec.op;
    if (!(spec.op == AggOp::kCount && spec.column.empty())) {
      FTS_ASSIGN_OR_RETURN(const size_t index,
                           table->ColumnIndex(spec.column));
      const auto found = std::find(columns.begin(), columns.end(), index);
      term.column = static_cast<int>(found - columns.begin());
      if (found == columns.end()) columns.push_back(index);
    }
    resolved.push_back(term);
  }
  FTS_ASSIGN_OR_RETURN(
      ProjectionGatherer gatherer,
      ProjectionGatherer::Prepare(std::move(table), std::move(columns)));
  return PositionsFoldSink(std::move(gatherer), std::move(resolved));
}

void PositionsFoldSink::Fold(GatherFn fn, ChunkId chunk_id,
                             const ChunkOffset* positions, size_t n,
                             AggAccumulator* accs, GatherStats* stats) const {
  for (size_t t = 0; t < terms_.size(); ++t) accs[t].count += n;
  const size_t width = gatherer_.column_count();
  if (n == 0 || width == 0) return;
  // Default-initialized: a cursor's delta block buffer is written before
  // it is read.
  const std::unique_ptr<GatherCursor[]> cursors(new GatherCursor[width]);
  alignas(64) std::byte batch[kFoldBatch * sizeof(uint64_t)];
  for (size_t begin = 0; begin < n; begin += kFoldBatch) {
    const size_t len = std::min(kFoldBatch, n - begin);
    for (size_t c = 0; c < width; ++c) {
      gatherer_.GatherColumnInto(fn, chunk_id, c, positions + begin, len,
                                 batch, &cursors[c], stats);
      DispatchDataType(gatherer_.output_type(c), [&](auto tag) {
        using T = decltype(tag);
        const T* values = reinterpret_cast<const T*>(batch);
        for (size_t t = 0; t < terms_.size(); ++t) {
          if (terms_[t].column == static_cast<int>(c)) {
            FoldValues(terms_[t].op, values, len, accs[t]);
          }
        }
      });
    }
  }
}

}  // namespace fts
