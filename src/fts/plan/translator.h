#ifndef FTS_PLAN_TRANSLATOR_H_
#define FTS_PLAN_TRANSLATOR_H_

#include "fts/common/status.h"
#include "fts/plan/lqp.h"
#include "fts/plan/physical_plan.h"
#include "fts/scan/scan_engine.h"

namespace fts {

// Execution-engine selection for the translator (Fig. 9: the LQP
// Translator chooses the actual operator implementations; for fused-scan
// chains it "invokes the JIT compiler").
struct TranslatorOptions {
  // Engine used for FusedScanNodes and single predicates.
  ScanEngine engine = ScanEngine::kAvx512Fused512;
  int jit_register_bits = 512;
  // Runtime demotion behavior when the engine fails (see scan_engine.h).
  FallbackPolicy fallback = FallbackPolicy::kLadder;
  // Worker threads for every morsel-driven operator of the plan
  // (PhysicalPlan::threads; 0 = FTS_THREADS env, defaulting to
  // single-threaded).
  int threads = 0;
  // Fold single-step aggregate projections inside the scan (kernel loop
  // or positions sink per chunk; no query-wide position lists). Disabled,
  // every aggregate folds its materialized position lists through the
  // positions sink — the bench harness uses this to measure the pushdown
  // speedup.
  bool enable_aggregate_pushdown = true;
  // Query lifecycle context (fts/common/query_context.h); threaded into
  // every ScanStep's spec and the plan itself so deadlines, cancellation
  // and the memory budget reach the scan/JIT/parallel layers. Borrowed —
  // must outlive plan execution.
  QueryContext* context = nullptr;
  // Read by nothing: every scan runs the engine its step names. Kept only
  // because perfbench still sets it, until a benchmark change drops that
  // line.
  bool adaptive = false;
};

// Lowers an (optimized) LQP chain into a PhysicalPlan.
//   - FusedScanNode         -> one multi-predicate ScanStep (`engine`).
//   - PredicateNode         -> one single-predicate ScanStep; the first
//                              runs `engine` over full chunks, later ones
//                              refine position lists (non-fused plans).
//   - Projection/Aggregate  -> the plan's output step.
StatusOr<PhysicalPlan> TranslateLqp(const LqpNodePtr& root,
                                    const TranslatorOptions& options = {});

}  // namespace fts

#endif  // FTS_PLAN_TRANSLATOR_H_
