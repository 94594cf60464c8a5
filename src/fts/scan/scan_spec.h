#ifndef FTS_SCAN_SCAN_SPEC_H_
#define FTS_SCAN_SCAN_SPEC_H_

#include <string>
#include <vector>

#include "fts/common/query_context.h"
#include "fts/simd/agg_spec.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/value.h"

namespace fts {

// One predicate of a conjunctive scan: `column op value`.
struct PredicateSpec {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value value;

  // E.g. "a = 5".
  std::string ToString() const;
};

// One aggregate pushed down into the scan loop: `op(column)`. COUNT takes
// no column (empty string). AVG is lowered to SUM + COUNT before this
// layer (fts/plan/translator.cc).
struct AggregateSpec {
  AggOp op = AggOp::kCount;
  std::string column;

  // E.g. "SUM(v)".
  std::string ToString() const;
};

// A conjunctive multi-predicate scan specification — the workload class
// the Fused Table Scan targets (SELECT ... WHERE p1 AND p2 AND ...).
struct ScanSpec {
  std::vector<PredicateSpec> predicates;

  // Aggregates folded inside the kernel loop (aggregate pushdown). When
  // non-empty, the Execute*Aggregate entry points are usable; the
  // position-materializing entry points ignore this field.
  std::vector<AggregateSpec> aggregates;

  // Query lifecycle state (deadline, cancellation, memory budget) the scan
  // should honor at chunk/morsel boundaries. Null = no lifecycle limits.
  // Borrowed, not owned: the Database::Query call (or test) that created
  // the context keeps it alive for the duration of the scan.
  QueryContext* context = nullptr;

  // Allow the calibrated cost model to pick the engine per chunk
  // (DESIGN.md §14). Off by default: an explicitly requested engine is a
  // pin, and direct API callers (tests, benches) rely on that. The
  // Database layer turns this on when the caller left the engine to the
  // system; FTS_ADAPTIVE=0 overrides it everywhere. Per-chunk chain
  // re-ranking is independent of this flag (it is result- and
  // engine-invariant, gated only by FTS_ADAPTIVE).
  bool adaptive = false;

  std::string ToString() const;
};

}  // namespace fts

#endif  // FTS_SCAN_SCAN_SPEC_H_
