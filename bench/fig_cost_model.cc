// Cost-model figure (DESIGN.md §14, beyond the paper): what the
// calibrated cost model buys and what it costs.
//
// Three claims, one arm each:
//
//   skew_rerank        alternating chunk types with opposite value
//                      distributions under one conjunction -- the static
//                      chain order is wrong for half the chunks, the
//                      per-chunk re-rank (zone-map selectivities) fixes
//                      exactly those. Acceptance: >= 1.2x.
//   uniform_overhead   identical distribution in every chunk -- the model
//                      estimates, ranks, and changes nothing. Acceptance:
//                      <= ~2% added wall time (Prepare + Execute).
//   prediction         EstimateScanNanos vs measured median across
//                      encodings x the engines the model compares
//                      (sisd-novec, sisd-autovec, best fused), on the
//                      calibrated profile.
//                      Acceptance: within ~15% for the kernel paths.
//
// Both sides of every comparison run the identical engine and verify
// byte-identical match counts; the adaptive arms differ only in
// FTS_ADAPTIVE seen at Prepare.
//
// Emits one machine-readable line per configuration:
//   BENCH {"figure":"fig_cost_model","case":"skew_rerank",...}
//
// Scaling knobs: FTS_BENCH_MAX_ROWS / FTS_BENCH_REPS / FTS_BENCH_FULL
// (see bench_util.h). The first adaptive Prepare calibrates the profile
// (~0.15 s, once); set FTS_COST_PROFILE to cache it across runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/random.h"
#include "fts/cost/cost_profile.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
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

// ---- prediction arm ----------------------------------------------------

struct EncodingCase {
  const char* name;
  TablePtr table;
  ScanSpec spec;
};

fts::ColumnPtr EncodeSlice64(const AlignedVector<int64_t>& slice,
                             fts::ColumnEncoding encoding) {
  switch (encoding) {
    case fts::ColumnEncoding::kRle:
      return std::make_shared<fts::RleColumn<int64_t>>(
          fts::RleColumn<int64_t>::FromValues(slice));
    case fts::ColumnEncoding::kFor: {
      auto column = fts::ForColumn<int64_t>::TryFromValues(slice);
      FTS_CHECK(column.has_value());
      return std::make_shared<fts::ForColumn<int64_t>>(std::move(*column));
    }
    case fts::ColumnEncoding::kDelta: {
      auto column = fts::DeltaColumn<int64_t>::TryFromValues(slice);
      FTS_CHECK(column.has_value());
      return std::make_shared<fts::DeltaColumn<int64_t>>(std::move(*column));
    }
    default:
      return std::make_shared<fts::ValueColumn<int64_t>>(
          AlignedVector<int64_t>(slice));
  }
}

TablePtr BuildEncoded64(const std::vector<int64_t>& values,
                        fts::ColumnEncoding encoding) {
  fts::TableBuilder builder({{"c0", fts::DataType::kInt64}}, kChunkSize);
  for (size_t begin = 0; begin < values.size(); begin += kChunkSize) {
    const size_t n = std::min(kChunkSize, values.size() - begin);
    AlignedVector<int64_t> slice(values.begin() + begin,
                                 values.begin() + begin + n);
    FTS_CHECK(builder.AddChunk({EncodeSlice64(slice, encoding)}).ok());
  }
  return builder.Build();
}

ScanSpec LtSpec64(int64_t literal) {
  ScanSpec spec;
  spec.predicates = {{"c0", fts::CompareOp::kLt, Value(literal)}};
  return spec;
}

std::vector<EncodingCase> BuildEncodingCases(size_t rows) {
  std::vector<EncodingCase> cases;
  fts::Xoshiro256 rng(0xC057);

  {  // plain32: uniform int32, ~50% below the literal.
    TablePtr table = BuildTwoColumnTable(rows, [&](size_t, size_t) {
      return std::pair<int32_t, int32_t>(
          static_cast<int32_t>(rng.NextBounded(1'000'000)), 0);
    });
    ScanSpec spec;
    spec.predicates = {{"c0", fts::CompareOp::kLt, Value(int32_t{500'000})}};
    cases.push_back({"plain32", std::move(table), std::move(spec)});
  }
  {  // plain64.
    std::vector<int64_t> values(rows);
    for (auto& v : values) {
      v = static_cast<int64_t>(rng.NextBounded(1u << 20));
    }
    cases.push_back({"plain64",
                     BuildEncoded64(values, fts::ColumnEncoding::kPlain),
                     LtSpec64(int64_t{1} << 19)});
  }
  {  // bitpacked: small-domain int32 codes, packed stream kernels.
    fts::TableBuilder builder({{"c0", fts::DataType::kInt32}}, kChunkSize);
    for (size_t begin = 0; begin < rows; begin += kChunkSize) {
      const size_t n = std::min(kChunkSize, rows - begin);
      AlignedVector<int32_t> slice(n);
      for (auto& v : slice) {
        v = static_cast<int32_t>(rng.NextBounded(512));
      }
      FTS_CHECK(builder
                    .AddChunk({std::make_shared<fts::BitPackedColumn<int32_t>>(
                        fts::BitPackedColumn<int32_t>::FromValues(slice))})
                    .ok());
    }
    ScanSpec spec;
    spec.predicates = {{"c0", fts::CompareOp::kLt, Value(int32_t{256})}};
    cases.push_back({"bitpacked", builder.Build(), std::move(spec)});
  }
  {  // for: rebased packed codes over a shifted uniform domain.
    std::vector<int64_t> values(rows);
    for (auto& v : values) {
      v = 1'000'000'000LL + static_cast<int64_t>(rng.NextBounded(1u << 20));
    }
    cases.push_back({"for", BuildEncoded64(values, fts::ColumnEncoding::kFor),
                     LtSpec64(1'000'000'000LL + (int64_t{1} << 19))});
  }
  {  // rle: 512-row runs with *random* values, so every chunk's zone
     // spans the domain and each run really gets classified (sequential
     // run values would let the zone maps decide whole chunks instead).
    std::vector<int64_t> values(rows);
    int64_t run_value = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (i % 512 == 0) {
        run_value = static_cast<int64_t>(rng.NextBounded(1024));
      }
      values[i] = run_value;
    }
    cases.push_back({"rle", BuildEncoded64(values, fts::ColumnEncoding::kRle),
                     LtSpec64(512)});
  }
  {  // delta: monotone timestamps, block min/max decide most blocks.
    std::vector<int64_t> values(rows);
    int64_t now = 1'700'000'000'000LL;
    for (auto& v : values) {
      now += static_cast<int64_t>(rng.NextBounded(1000));
      v = now;
    }
    const int64_t median = values[rows / 2];
    cases.push_back({"delta",
                     BuildEncoded64(values, fts::ColumnEncoding::kDelta),
                     LtSpec64(median)});
  }
  return cases;
}

}  // namespace

int main() {
  PrintTitle(
      "Calibrated cost model -- per-chunk re-ranking, overhead, and "
      "prediction accuracy");
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
                "overhead %+.2f%%\n\n",
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

  // ---- prediction: EstimateScanNanos vs measured, per encoding --------
  // The estimating scanner is prepared with spec.adaptive so it carries
  // the *calibrated* profile; the measured scanner is pinned so the
  // executed engine is exactly the predicted one.
  const size_t acc_rows = std::min(rows, size_t{4'000'000});
  // The engines the model compares: the calibrated adaptation set.
  const ScanEngine engines[] = {ScanEngine::kSisdNoVec,
                                ScanEngine::kSisdAutoVec,
                                fts::cost::BestFusedEngine()};
  std::printf("%-11s%-14s%14s%13s%11s\n", "encoding", "engine",
              "predicted_ms", "measured_ms", "error_pct");
  PrintRule('-', 63);
  for (const EncodingCase& c : BuildEncodingCases(acc_rows)) {
    ScanSpec estimating = c.spec;
    estimating.adaptive = true;
    const TableScanner estimator = PrepareWith(c.table, estimating, true);
    const TableScanner measured_scan = PrepareWith(c.table, c.spec, true);
    for (const ScanEngine e : engines) {
      const double predicted_ms = estimator.EstimateScanNanos(e) / 1e6;
      const double measured_ms = MedianMillis(reps, [&] {
        const auto matches =
            RunSerial(fts::ExecuteParallelScan, measured_scan, {e, 0});
        FTS_CHECK(matches.ok());
        fts::DoNotOptimizeAway(matches->TotalMatches());
      });
      const double error_pct =
          (predicted_ms / measured_ms - 1.0) * 100.0;
      std::printf("%-11s%-14s%14.3f%13.3f%+10.1f%%\n", c.name,
                  fts::ScanEngineToString(e), predicted_ms, measured_ms,
                  error_pct);
      BenchLine("fig_cost_model")
          .Field("case", "prediction")
          .Field("encoding", c.name)
          .Field("engine", fts::ScanEngineToString(e))
          .Field("rows", static_cast<uint64_t>(acc_rows))
          .Field("predicted_ms", predicted_ms)
          .Field("measured_ms", measured_ms)
          .Field("error_pct", error_pct)
          .Emit();
    }
  }
  return 0;
}
