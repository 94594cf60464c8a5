#ifndef FTS_STORAGE_TABLE_STATISTICS_H_
#define FTS_STORAGE_TABLE_STATISTICS_H_

#include <vector>

#include "fts/storage/compare_op.h"
#include "fts/storage/table.h"
#include "fts/storage/value.h"

namespace fts {

// One chunk's zone-map bounds for a column, widened to double for the
// selectivity math.
struct ColumnZone {
  double min = 0.0;
  double max = 0.0;
  uint64_t row_count = 0;
};

// Per-column summary statistics used by the optimizer's predicate-reordering
// rule (Section V: "predicate reordering ... make[s] sure that predicates
// are evaluated ... in the most efficient order").
struct ColumnStatistics {
  // Min/max over all rows, widened to double. Exact.
  double min = 0.0;
  double max = 0.0;
  // Estimated number of distinct values. Exact for dictionary columns
  // (dictionary size); sample-based estimate for the other encodings.
  double distinct_count = 0.0;
  uint64_t row_count = 0;
  // Per-chunk zone-map bounds, in chunk order — populated only when every
  // chunk of the column carries a valid zone map. EstimateSelectivity then
  // row-weights per-zone estimates instead of prorating over the single
  // global [min, max], which is dramatically tighter on clustered data
  // (a range predicate touching 2 of 16 disjoint chunk ranges estimates
  // ~2/16, not the ~full-range fraction the global bounds suggest).
  std::vector<ColumnZone> zones;
};

// Statistics for every column of a table.
class TableStatistics {
 public:
  // Computes statistics for `table`. Min/max are exact: plain, RLE, FoR
  // and delta chunks read them from their zone maps (the row loop runs
  // only where a chunk has no valid zone map), dictionary-backed chunks
  // from their dictionaries. The distinct-count estimate of a column pools
  // an evenly strided sample of every chunk without a dictionary, the
  // same rows whatever the encoding; `sample_limit` budgets each chunk, not
  // the column (a chunk contributes under 2 * sample_limit rows). The
  // per-chunk budget is kept on purpose: a per-column budget would move
  // the estimates, and with them the plans.
  static TableStatistics Compute(const Table& table,
                                 size_t sample_limit = 1 << 16);

  const ColumnStatistics& column(size_t index) const;
  size_t column_count() const { return columns_.size(); }
  uint64_t row_count() const { return row_count_; }

  // Estimated fraction of rows satisfying (column `op` value), in [0, 1].
  // Uniform-distribution model: equality = 1/distinct, ranges prorated over
  // [min, max].
  double EstimateSelectivity(size_t column_index, CompareOp op,
                             const Value& value) const;

 private:
  std::vector<ColumnStatistics> columns_;
  uint64_t row_count_ = 0;
};

// Process-wide statistics cache. Tables are immutable, so statistics are
// computed once per table and reused by every query (the optimizer's
// reordering rule runs on each planning pass). Entries are keyed by table
// identity and dropped once the table is released.
std::shared_ptr<const TableStatistics> GetCachedStatistics(
    const TablePtr& table);

}  // namespace fts

#endif  // FTS_STORAGE_TABLE_STATISTICS_H_
