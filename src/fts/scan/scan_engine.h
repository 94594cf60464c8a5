#ifndef FTS_SCAN_SCAN_ENGINE_H_
#define FTS_SCAN_SCAN_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fts/common/status.h"

namespace fts {

// Every scan implementation the repository can execute. The first six are
// the implementations compared in the paper's Fig. 5; kBlockwise is the
// classic block-at-a-time operator with materialized intermediate position
// lists (the strategy the Fused Table Scan improves upon, Section I);
// kJit is the runtime-generated operator from Section V.
enum class ScanEngine : uint8_t {
  kSisdNoVec = 0,    // "SISD (no vec)"
  kSisdAutoVec,      // "SISD (auto vec)"
  kScalarFused,      // Portable fused fallback (not in the paper).
  kAvx2Fused128,     // "AVX2 Fused (128)"
  kAvx512Fused128,   // "AVX-512 Fused (128)"
  kAvx512Fused256,   // "AVX-512 Fused (256)"
  kAvx512Fused512,   // "AVX-512 Fused (512)"
  kBlockwise,        // Vectorized scan with materialized position lists.
  kJit,              // JIT-generated fused operator (fts/jit).
};

const char* ScanEngineToString(ScanEngine engine);

// Short machine-friendly label ("sisd-novec", "avx512-512", "jit", ...);
// the same spelling ParseScanEngine accepts and metric labels use.
const char* ScanEngineLabel(ScanEngine engine);

// Parses names like "avx512-512", "sisd-novec", "jit" (see .cc for the
// full list). Used by example binaries and bench harnesses.
StatusOr<ScanEngine> ParseScanEngine(const std::string& name);

// True when the current CPU can execute `engine` (kJit also requires a
// working host compiler, which this check does not verify).
bool ScanEngineAvailable(ScanEngine engine);

// What the executor does when the requested scan engine fails at runtime
// (missing JIT compiler, compile error/timeout, dlopen failure, CPU without
// the required ISA): fail the query, or demote along DegradationLadder()
// until an engine succeeds. The SISD engines cannot fail, so a ladder walk
// always terminates with a correct scan.
enum class FallbackPolicy : uint8_t {
  kStrict = 0,  // Surface the requested engine's error to the caller.
  kLadder,      // Demote rung by rung; record each demotion.
};

const char* FallbackPolicyToString(FallbackPolicy policy);

// One concrete way to run a scan: an engine plus, for kJit, the register
// width the generated code targets.
struct EngineChoice {
  ScanEngine engine = ScanEngine::kSisdNoVec;
  int jit_register_bits = 0;  // Non-zero only for engine == kJit.

  std::string ToString() const;
  friend bool operator==(const EngineChoice& a,
                         const EngineChoice& b) = default;
};

// One rung tried during execution. `status` is OK for the rung that ran
// and carries the demotion reason for every rung that was skipped over.
struct EngineAttempt {
  EngineChoice choice;
  Status status;
};

// Where a scan's cycle/branch counters came from. kHardware means a real
// PMU read via perf_event_open; kUnavailable means nothing was measured —
// the default for queries that do not collect counters, and what EXPLAIN
// ANALYZE reports on a host without a readable PMU. (The branch-predictor
// replay in fts/perf/branch_predictor.h serves the paper-figure benches,
// not the query path.)
enum class CounterSource : uint8_t {
  kUnavailable = 0,
  kHardware,
};

const char* CounterSourceToString(CounterSource source);

// Per-scan microarchitectural counters with their provenance. Populated by
// the morsel loop (fts/exec/morsel_loop.h) when the plan collects counters
// (EXPLAIN ANALYZE).
//
// Coverage labeling (DESIGN.md §15): the numbers are only meaningful
// together with the scope they were measured over. Every morsel of every
// scan step — the first step's chunk morsels and the refine steps'
// position-list morsels — is measured on its executing worker at every
// thread count. `coverage` says how many morsels on how many threads the
// numbers cover, and `partial` flags a measurement that missed some
// completed morsel.
struct ScanCounters {
  CounterSource source = CounterSource::kUnavailable;
  // Which PMU interface produced the numbers ("perf_event_open").
  std::string detail;
  // Human-readable scope, e.g. "12/12 morsels on 4 threads".
  std::string coverage;
  // True when some completed morsel was not measured (e.g. its PMU read
  // failed). EXPLAIN ANALYZE renders partial numbers as such.
  bool partial = false;
  // Morsel coverage accounting over every scan step; `threads_covered` is
  // the widest step's count of distinct measured threads.
  uint64_t morsels_covered = 0;
  uint64_t morsels_measurable = 0;
  int threads_covered = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t branches = 0;
  uint64_t branch_misses = 0;

  std::string ToString() const;
};

// Counter totals attributed to one engine choice across the morsels it
// executed. Lets EXPLAIN ANALYZE separate e.g. the cycles/row of JIT
// morsels from the tier-0 or degraded chunks of the same query.
struct EngineCounters {
  EngineChoice choice;
  uint64_t regions = 0;  // Morsels measured.
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t branches = 0;
  uint64_t branch_misses = 0;
};

// Wall time and row movement of one plan stage (scan step, refine step,
// aggregation), for EXPLAIN ANALYZE rendering.
struct StageReport {
  std::string label;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  double millis = 0.0;
  // Planner/cost-model row estimate for this stage's output, so EXPLAIN
  // ANALYZE can show estimated vs actual per stage. `has_estimate` is
  // false when no statistics were available to estimate from.
  bool has_estimate = false;
  double est_rows_out = 0.0;
  // Hardware counters attributed to this stage, summed across the threads
  // that executed it. `counters_valid` is false when the stage ran without
  // PMU coverage (host without counters, or collection off).
  bool counters_valid = false;
  uint64_t cycles = 0;
  uint64_t branch_misses = 0;
};

// Which engine a scan actually executed and why. Every QueryResult carries
// one, so degradations are observable instead of silent.
//
// The morsel executor (fts/exec/parallel_scan.h) walks the degradation
// ladder independently per morsel (= chunk) at every thread count, so one
// chunk's JIT compile failure demotes only that chunk. `executed` is then the
// deepest rung any morsel ran, `attempts` is that morsel's ladder trail,
// and `morsel_choices` records every morsel's decision in chunk order.
struct ExecutionReport {
  EngineChoice requested;
  EngineChoice executed;
  // True when `executed` differs from `requested` (any demotion happened).
  bool degraded = false;
  // Every rung tried, in order; the last entry is the one that ran.
  std::vector<EngineAttempt> attempts;
  // Worker threads that executed the scan (1 = morsels ran inline on the
  // calling thread).
  int worker_count = 1;
  // Morsels (chunk-granular work units) the scan was split into: one per
  // runnable chunk, so 0 only when every chunk was pruned or empty.
  size_t morsel_count = 0;
  // Engine that ran each morsel, in chunk order. Byte-identical output is
  // guaranteed regardless of the per-morsel choices (all rungs compute the
  // same positions).
  std::vector<EngineChoice> morsel_choices;
  // Zone-map accounting (fts/storage/zone_map.h), filled from the prepared
  // scanner's PruningSummary by every execution path. `chunks_pruned`
  // counts chunks proven matchless before execution (zone-map bounds or
  // dictionary translation); `stages_dropped` counts per-chunk tautological
  // conjuncts removed from fused chains; `bytes_skipped` estimates the
  // column bytes those prunes avoided reading.
  size_t chunks_total = 0;
  size_t chunks_pruned = 0;
  size_t stages_dropped = 0;
  uint64_t bytes_skipped = 0;
  // Rows actually evaluated (pruned chunks excluded) and rows that matched
  // every predicate. Filled by the plan executor.
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  // Compressed-domain execution (fts/scan/compressed_scan.h).
  // `stage_encodings[e]` counts prepared predicate stages whose column
  // carries ColumnEncoding e, summed over chunks (the per-stage encoding
  // mix EXPLAIN ANALYZE prints). The run/block counters attribute the
  // compressed paths: RLE runs classified once vs. runs whose whole
  // position range was skipped, delta blocks answered from block min/max
  // vs. blocks that had to be prefix-reconstructed.
  uint64_t stage_encodings[6] = {0, 0, 0, 0, 0, 0};
  uint64_t rle_runs_classified = 0;
  uint64_t rle_runs_skipped = 0;
  uint64_t delta_blocks_pruned = 0;
  uint64_t delta_blocks_decoded = 0;
  // Late-materialization projection (fts/scan/projection_gather.h).
  // `gather_engine` labels the batch-gather kernel that materialized the
  // projection (FusedKernelKindToString: "AVX-512 Fused (512)", ...;
  // "Scalar Fused" for the SISD engines); empty when nothing projected.
  // `gather_rows[e]` counts output cells gathered from source columns with
  // ColumnEncoding e; the kernel/typed split separates cells produced by
  // the SIMD gather kernels from the typed narrow-width/run/block loops.
  // `gather_delta_blocks` counts delta blocks the gather had to
  // prefix-reconstruct (blocks without survivors are never decoded).
  std::string gather_engine;
  uint64_t gather_rows[6] = {0, 0, 0, 0, 0, 0};
  uint64_t gather_kernel_rows = 0;
  uint64_t gather_typed_rows = 0;
  uint64_t gather_delta_blocks = 0;
  // Aggregate pushdown: true when the plan folded its aggregates inside
  // the scan instead of materializing the query's position lists (a
  // pushed-down COUNT(*) is a one-term fold, so it sets this too);
  // `rows_folded` counts the matched rows folded into accumulators
  // (zone-shortcut chunks contribute without being scanned). Per chunk,
  // the fold ran without materializing positions (`agg_kernel_chunks`:
  // fused or JIT kernel, zone maps, or the compressed range path's COUNT)
  // or through the positions sink
  // (`agg_positions_chunks`, fts/scan/positions_fold.h), whose delta
  // decoder prefix-reconstructed `agg_delta_blocks` blocks. Plans that
  // do not push down fold their refined position lists through the same
  // sink and fill the same counters.
  bool aggregate_pushdown = false;
  uint64_t rows_folded = 0;
  uint64_t agg_kernel_chunks = 0;
  uint64_t agg_positions_chunks = 0;
  uint64_t agg_delta_blocks = 0;
  // JIT attribution across the query's chunk executions: lookups served
  // by a compiled kernel, compiles the query queued (`jit_cache_misses`),
  // and the compile time it waited for (0 unless kStrict waited; tiered
  // morsels run a static engine meanwhile, visible in morsel_choices).
  double jit_compile_millis = 0.0;
  uint64_t jit_cache_hits = 0;
  uint64_t jit_cache_misses = 0;
  // Query lifecycle (fts/common/query_context.h). `deadline_millis` is the
  // budget the query was armed with (0 = none); a query that missed it or
  // was canceled returns its status instead of a report. Morsel accounting
  // shows the deterministic partial abort in the report a failed scan
  // leaves behind: completed morsels ran to their boundary, aborted
  // morsels were discarded without running. `queue_wait_millis` is the
  // time spent in the admission controller's run queue before execution
  // began.
  int64_t deadline_millis = 0;
  size_t morsels_completed = 0;
  size_t morsels_aborted = 0;
  double queue_wait_millis = 0.0;
  // Cost model (fts/cost, DESIGN.md §14). `model_active` is true when
  // FTS_ADAPTIVE left the model on (per-chunk chain re-ranking eligible).
  // `chunks_reordered` counts chunks whose fused chain ran in a different
  // order than the spec's predicate order. `est_rows` is the model's
  // predicted match count for the scan.
  bool model_active = false;
  size_t chunks_reordered = 0;
  double est_rows = 0.0;
  // Wall time of the scan stages alone (excludes parse/plan/aggregate).
  double scan_millis = 0.0;
  // Per-stage breakdown for EXPLAIN ANALYZE; one entry per executed plan
  // stage in execution order.
  std::vector<StageReport> stages;
  // Whole-query microarchitectural counters with coverage labeling: the
  // per-worker per-morsel PMU reads of every scan step.
  ScanCounters counters;
  // Counter totals split by the engine that executed each measured region,
  // in first-seen order. Empty without hardware coverage.
  std::vector<EngineCounters> engine_counters;

  // Accumulates one measured region's counters into the entry for
  // `choice`, creating it on first sight.
  void AttributeEngineCounters(const EngineChoice& choice, uint64_t cycles,
                               uint64_t instructions, uint64_t branches,
                               uint64_t branch_misses);

  void RecordSuccess(const EngineChoice& choice) {
    attempts.push_back({choice, Status::Ok()});
    executed = choice;
    degraded = !(choice == requested);
  }

  // The morsels' engine mix in first-seen order, e.g.
  // "JIT Fused (512-bit) x12, AVX-512 Fused (512) x19". It names tier-0,
  // static-choice and demoted morsels alike; `degraded` tells a demotion.
  std::string EngineMix() const;

  // Multi-line human-readable rendering (one line per attempt).
  std::string ToString() const;
};

// The ordered fallback chain starting at `requested`:
//   JIT-512 -> JIT-256 -> JIT-128 -> AVX-512 fused -> AVX2 fused ->
//   scalar fused -> SISD.
// Rungs are NOT filtered by CPU capability — an unavailable rung fails
// with kUnavailable when tried, so the demotion reason lands in the
// ExecutionReport instead of vanishing. `jit_register_bits` seeds the JIT
// rungs when `requested` is kJit (narrower widths follow).
std::vector<EngineChoice> DegradationLadder(ScanEngine requested,
                                            int jit_register_bits);

namespace obs {
class Counter;
}  // namespace obs

// Global per-engine execution counter
// (`fts_engine_executions_total{engine="..."}` in the metrics registry).
// Lives here rather than in fts/obs because obs cannot see the ScanEngine
// enum without an upward dependency. Pointers are resolved once and
// cached, so hot paths pay one array index plus a striped atomic add.
obs::Counter* EngineExecutionCounter(ScanEngine engine);

}  // namespace fts

#endif  // FTS_SCAN_SCAN_ENGINE_H_
