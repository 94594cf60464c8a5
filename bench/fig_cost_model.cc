// Cost-model figure (DESIGN.md §14, beyond the paper): what per-chunk
// chain re-ranking buys and what it costs.
//
// Two claims, one arm each:
//
//   skew_rerank        alternating chunk types with opposite value
//                      distributions under one conjunction -- the static
//                      chain order is wrong for half the chunks, the
//                      per-chunk re-rank (zone-map selectivities) fixes
//                      exactly those. Acceptance: >= 1.2x.
//   uniform_overhead   identical distribution in every chunk -- the model
//                      estimates, ranks, and changes nothing. Acceptance:
//                      <= ~2% added wall time (Prepare + Execute).
//
// Both sides of every comparison run the identical engine and verify
// byte-identical match counts; the arms differ only in FTS_ADAPTIVE seen
// at Prepare.
//
// Emits one machine-readable line per configuration:
//   BENCH {"figure":"fig_cost_model","case":"skew_rerank",...}
//
// Scaling knobs: FTS_BENCH_MAX_ROWS / FTS_BENCH_REPS / FTS_BENCH_FULL
// (see bench_util.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/random.h"
#include "fts/cost/cost_profile.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {
using namespace fts::bench;
using fts::AlignedVector;
using fts::ScanEngine;
using fts::ScanSpec;
using fts::TablePtr;
using fts::TableScanner;
using fts::Value;

constexpr size_t kChunkSize = size_t{1} << 16;

// Prepares under the given FTS_ADAPTIVE setting. The switch is read once
// per Prepare, so toggling it here never affects scanners already built.
TableScanner PrepareWith(const TablePtr& table, const ScanSpec& spec,
                         bool adaptive_env) {
  setenv("FTS_ADAPTIVE", adaptive_env ? "1" : "0", 1);
  auto prepared = TableScanner::Prepare(table, spec);
  unsetenv("FTS_ADAPTIVE");
  FTS_CHECK(prepared.ok());
  return *std::move(prepared);
}

uint64_t MustCount(const TableScanner& scanner, ScanEngine engine) {
  const auto count =
      RunSerial(fts::ExecuteParallelScanCount, scanner, {engine, 0});
  FTS_CHECK(count.ok());
  return *count;
}

// Two-column int32 table built chunk by chunk from a generator
// f(chunk, row) -> {c0, c1}.
template <typename Fn>
TablePtr BuildTwoColumnTable(size_t rows, const Fn& cell) {
  fts::TableBuilder builder(
      {{"c0", fts::DataType::kInt32}, {"c1", fts::DataType::kInt32}},
      kChunkSize);
  size_t chunk = 0;
  for (size_t begin = 0; begin < rows; begin += kChunkSize, ++chunk) {
    const size_t n = std::min(kChunkSize, rows - begin);
    AlignedVector<int32_t> c0(n);
    AlignedVector<int32_t> c1(n);
    for (size_t r = 0; r < n; ++r) {
      const auto [a, b] = cell(chunk, r);
      c0[r] = a;
      c1[r] = b;
    }
    FTS_CHECK(builder
                  .AddChunk({std::make_shared<fts::ValueColumn<int32_t>>(
                                 std::move(c0)),
                             std::make_shared<fts::ValueColumn<int32_t>>(
                                 std::move(c1))})
                  .ok());
  }
  return builder.Build();
}

ScanSpec TwoColumnSpec() {
  ScanSpec spec;
  spec.predicates = {{"c0", fts::CompareOp::kLt, Value(int32_t{5})},
                     {"c1", fts::CompareOp::kLt, Value(int32_t{5})}};
  return spec;
}

// Median ms of Prepare + Execute for both FTS_ADAPTIVE settings -- the
// honest comparison, since estimation and re-ranking live in Prepare.
// The two arms interleave (static, adaptive, static, ...) after one
// untimed warmup each, so cache/frequency drift hits both equally
// instead of whichever arm happens to run first.
struct PairedMillis {
  double static_ms = 0.0;
  double adaptive_ms = 0.0;
};

PairedMillis PairedScanMillis(const TablePtr& table, const ScanSpec& spec,
                              ScanEngine engine, int reps) {
  const auto once = [&](bool adaptive_env) {
    const TableScanner scanner = PrepareWith(table, spec, adaptive_env);
    const auto matches =
        RunSerial(fts::ExecuteParallelScan, scanner, {engine, 0});
    FTS_CHECK(matches.ok());
    fts::DoNotOptimizeAway(matches->TotalMatches());
  };
  once(false);
  once(true);
  std::vector<double> static_samples;
  std::vector<double> adaptive_samples;
  static_samples.reserve(static_cast<size_t>(reps));
  adaptive_samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    for (const bool adaptive_env : {false, true}) {
      fts::Stopwatch stopwatch;
      once(adaptive_env);
      (adaptive_env ? adaptive_samples : static_samples)
          .push_back(stopwatch.ElapsedMillis());
    }
  }
  return {fts::Median(static_samples), fts::Median(adaptive_samples)};
}

}  // namespace

int main() {
  PrintTitle(
      "Cost model -- per-chunk re-ranking and its overhead");
  const size_t rows = ScaleRows(std::min(MaxRows(), size_t{8'000'000}));
  if (rows == 0) {
    std::printf("configuration skipped (FTS_BENCH_MAX_ROWS too small)\n");
    return 0;
  }
  const int reps = Reps();
  const ScanEngine engine = fts::cost::BestFusedEngine();
  std::printf("rows = %zu, chunks = %zu, reps = %d, engine = %s\n\n", rows,
              (rows + kChunkSize - 1) / kChunkSize, reps,
              fts::ScanEngineToString(engine));

  // ---- skew_rerank: the static order is wrong for odd chunks ----------
  // Even chunks: c0 wide [0,1000], c1 narrow [0,10] -- spec order
  // (c0 first) is already cheapest-effective-first. Odd chunks swap the
  // distributions, so the static chain runs its ~45%-selective stage
  // first and the re-rank flips it to ~0.5%.
  {
    const TablePtr table =
        BuildTwoColumnTable(rows, [](size_t chunk, size_t r) {
          const auto wide = static_cast<int32_t>(r % 1001);
          const auto narrow = static_cast<int32_t>(r % 11);
          return chunk % 2 == 0 ? std::pair<int32_t, int32_t>(wide, narrow)
                                : std::pair<int32_t, int32_t>(narrow, wide);
        });
    const ScanSpec spec = TwoColumnSpec();
    const TableScanner static_scan = PrepareWith(table, spec, false);
    const TableScanner ranked_scan = PrepareWith(table, spec, true);
    FTS_CHECK(MustCount(static_scan, engine) ==
              MustCount(ranked_scan, engine));

    const auto [static_ms, adaptive_ms] =
        PairedScanMillis(table, spec, engine, reps);
    const double speedup = static_ms / adaptive_ms;
    std::printf("skew_rerank:      static %8.3f ms   adaptive %8.3f ms   "
                "speedup %.2fx   (chunks reordered %zu/%zu)\n",
                static_ms, adaptive_ms, speedup,
                ranked_scan.chunks_reordered(),
                ranked_scan.chunk_plans().size());
    BenchLine("fig_cost_model")
        .Field("case", "skew_rerank")
        .Field("engine", fts::ScanEngineToString(engine))
        .Field("rows", static_cast<uint64_t>(rows))
        .Field("static_ms", static_ms)
        .Field("adaptive_ms", adaptive_ms)
        .Field("speedup", speedup)
        .Field("chunks_reordered",
               static_cast<uint64_t>(ranked_scan.chunks_reordered()))
        .Emit();
  }

  // ---- uniform_overhead: nothing to fix, the model must cost ~nothing --
  {
    fts::Xoshiro256 rng(0x07EA);
    const TablePtr table = BuildTwoColumnTable(rows, [&](size_t, size_t) {
      return std::pair<int32_t, int32_t>(
          static_cast<int32_t>(rng.NextBounded(1001)),
          static_cast<int32_t>(rng.NextBounded(1001)));
    });
    const ScanSpec spec = TwoColumnSpec();
    const auto [static_ms, adaptive_ms] =
        PairedScanMillis(table, spec, engine, reps);
    const double overhead_pct = (adaptive_ms / static_ms - 1.0) * 100.0;
    std::printf("uniform_overhead: static %8.3f ms   adaptive %8.3f ms   "
                "overhead %+.2f%%\n",
                static_ms, adaptive_ms, overhead_pct);
    BenchLine("fig_cost_model")
        .Field("case", "uniform_overhead")
        .Field("engine", fts::ScanEngineToString(engine))
        .Field("rows", static_cast<uint64_t>(rows))
        .Field("static_ms", static_ms)
        .Field("adaptive_ms", adaptive_ms)
        .Field("overhead_pct", overhead_pct)
        .Emit();
  }
  return 0;
}
