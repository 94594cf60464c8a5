// Compressed-domain scan figure (tentpole extension beyond the paper):
// RLE / frame-of-reference / delta columns filtered *without decoding*,
// against the decode-then-scan baseline every engine without
// compressed-domain support must pay. Three data shapes, each under its
// natural encoding plus the others that fit:
//
//   uniform    random values              -- RLE-hostile (runs of 1); FoR
//                                            packs the narrow domain
//   clustered  runs of 512 equal values   -- RLE classifies each run once
//              cycling a 1024-value domain   and emits position ranges;
//              (128 values per chunk)        zone maps decide the rest
//   timestamp  monotone increments        -- delta blocks answer from
//                                            block min/max; zone maps and
//                                            block pruning compound
//
// Per configuration and thread count (1 and 4 workers), medians over the
// identical logical data:
//   plain_ms        fused scan over the pre-decoded plain table
//   compressed_ms   Prepare + materialize-and-size over the encoded table
//                   (the compressed-domain path under test)
//   decode_scan_ms  decode every chunk to a plain buffer (serially), then
//                   the same fused scan -- what "decompress first" costs
//   count_ms        Prepare + pushed-down COUNT(*) over the encoded table
//                   on the same engine: compressed-domain chunks count
//                   their ranges without materializing a row
//   jit_count_ms,   on AVX-512 hosts, the COUNT(*) and the
//   jit_ms          materialize-and-size arms pinned to JIT (512-bit,
//                   ladder policy, operators compiled before timing)
//
// Counts are self-verified against a SISD scan of the plain table.
//
// Emits one machine-readable line per configuration and thread count:
//   BENCH {"figure":"fig_compressed_scan","shape":"...","encoding":"...",
//          "selectivity":...,"threads":...,"plain_ms":...,
//          "compressed_ms":...,"decode_scan_ms":...,"count_ms":...,
//          "speedup_vs_decode":...,...}
//
// Scaling knobs: FTS_BENCH_MAX_ROWS / FTS_BENCH_REPS / FTS_BENCH_FULL
// (see bench_util.h).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "fts/common/cpu_info.h"
#include "fts/common/random.h"
#include "fts/exec/task_pool.h"
#include "fts/jit/jit_cache.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {
using namespace fts::bench;
using fts::AlignedVector;
using fts::ColumnEncoding;
using fts::ScanEngine;

constexpr size_t kChunkSize = size_t{1} << 16;

// Encodes one 64K slice of `values` under `encoding`; FoR/delta must fit
// by construction of the shapes below.
fts::ColumnPtr EncodeSlice(const AlignedVector<int64_t>& slice,
                           ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kRle:
      return std::make_shared<fts::RleColumn<int64_t>>(
          fts::RleColumn<int64_t>::FromValues(slice));
    case ColumnEncoding::kFor: {
      auto column = fts::ForColumn<int64_t>::TryFromValues(slice);
      FTS_CHECK_MSG(column.has_value(), "FoR range exceeds kMaxPackedBits");
      return std::make_shared<fts::ForColumn<int64_t>>(std::move(*column));
    }
    case ColumnEncoding::kDelta: {
      auto column = fts::DeltaColumn<int64_t>::TryFromValues(slice);
      FTS_CHECK_MSG(column.has_value(), "delta diffs exceed kMaxDeltaBits");
      return std::make_shared<fts::DeltaColumn<int64_t>>(std::move(*column));
    }
    default:
      return std::make_shared<fts::ValueColumn<int64_t>>(
          AlignedVector<int64_t>(slice));
  }
}

fts::TablePtr BuildTable(const std::vector<int64_t>& values,
                         ColumnEncoding encoding) {
  fts::TableBuilder builder({{"c0", fts::DataType::kInt64}}, kChunkSize);
  for (size_t begin = 0; begin < values.size(); begin += kChunkSize) {
    const size_t rows = std::min(kChunkSize, values.size() - begin);
    AlignedVector<int64_t> slice(values.begin() + begin,
                                 values.begin() + begin + rows);
    FTS_CHECK(builder.AddChunk({EncodeSlice(slice, encoding)}).ok());
  }
  return builder.Build();
}

// Decodes one column into `out` the way a decode-then-scan engine must:
// RLE expands runs, FoR rebases every code, delta prefix-reconstructs
// block by block.
void DecodeColumn(const fts::BaseColumn& column, int64_t* out) {
  switch (column.encoding()) {
    case ColumnEncoding::kRle: {
      const auto& rle = static_cast<const fts::RleColumn<int64_t>&>(column);
      size_t row = 0;
      for (size_t run = 0; run < rle.run_count(); ++run) {
        const int64_t value = rle.run_values()[run];
        const uint32_t end = rle.run_ends()[run];
        for (; row < end; ++row) out[row] = value;
      }
      return;
    }
    case ColumnEncoding::kFor: {
      const auto& for_column =
          static_cast<const fts::ForColumn<int64_t>&>(column);
      for (size_t row = 0; row < for_column.size(); ++row) {
        out[row] = for_column.ValueAt(row);
      }
      return;
    }
    case ColumnEncoding::kDelta: {
      const auto& delta =
          static_cast<const fts::DeltaColumn<int64_t>&>(column);
      int64_t* cursor = out;
      for (size_t b = 0; b < delta.blocks().size(); ++b) {
        cursor += delta.DecodeBlock(b, cursor);
      }
      return;
    }
    default:
      FTS_CHECK_MSG(false, "decode covers rle/for/delta only");
  }
}

// The decode-then-scan baseline: expand every chunk of the encoded table
// into the scratch buffer, then run the fused count over the *plain*
// table (same bytes the decode just produced). Decoding into scratch and
// scanning the prebuilt plain table keeps the comparison allocation-free
// without letting the compiler elide the decode.
uint64_t DecodeThenScan(const fts::TablePtr& encoded,
                        const fts::TableScanner& plain_scanner,
                        const fts::ParallelScanOptions& options,
                        AlignedVector<int64_t>& scratch) {
  for (fts::ChunkId chunk = 0; chunk < encoded->chunk_count(); ++chunk) {
    DecodeColumn(encoded->chunk(chunk).column(0), scratch.data());
    fts::DoNotOptimizeAway(scratch[scratch.size() / 2]);
  }
  const auto count = fts::ExecuteParallelScanCount(plain_scanner, options);
  FTS_CHECK(count.ok());
  return *count;
}

// Prepares `spec` over `table` and counts its matches under `options`:
// materialize-and-size without aggregates, the pushed-down fold of the
// spec's COUNT(*) term with them. The scan's report goes to `report`.
uint64_t PrepareAndCount(const fts::TablePtr& table, const fts::ScanSpec& spec,
                         const fts::ParallelScanOptions& options,
                         fts::ExecutionReport* report = nullptr) {
  const auto scanner = fts::TableScanner::Prepare(table, spec);
  FTS_CHECK(scanner.ok());
  if (spec.aggregates.empty()) {
    const auto count =
        fts::ExecuteParallelScanCount(*scanner, options, report);
    FTS_CHECK(count.ok());
    return *count;
  }
  const auto folded =
      fts::ExecuteParallelScanAggregate(*scanner, options, report);
  FTS_CHECK(folded.ok());
  return folded->matched;
}

struct Shape {
  const char* name;
  ColumnEncoding encoding;
  std::vector<int64_t> values;
};

}  // namespace

int main() {
  PrintTitle(
      "Compressed-domain scans -- RLE/FoR/delta filtering without "
      "decoding vs decode-then-scan");
  const size_t rows = ScaleRows(MaxRows());
  if (rows == 0) {
    std::printf("configuration skipped (FTS_BENCH_MAX_ROWS too small)\n");
    return 0;
  }
  const int reps = Reps();
  const ScanEngine engine =
      fts::GetCpuFeatures().HasFusedScanAvx512()
          ? ScanEngine::kAvx512Fused512
          : ScanEngine::kScalarFused;

  // uniform: random in [0, 2^20) -- fits FoR's packed width.
  fts::Xoshiro256 rng(0xC0);
  Shape uniform{"uniform", ColumnEncoding::kFor, {}};
  uniform.values.resize(rows);
  for (auto& v : uniform.values) {
    v = static_cast<int64_t>(rng.NextBounded(1u << 20));
  }
  // clustered: runs of 512 equal values cycling a 1024-value domain. A
  // 64K-row chunk holds 128 runs, a 128-value window of the domain, so
  // zone maps decide every chunk wholly on one side of the threshold and
  // the RLE run classifier does the boundary chunks.
  Shape clustered{"clustered", ColumnEncoding::kRle, {}};
  clustered.values.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    clustered.values[i] = static_cast<int64_t>((i / 512) % 1024);
  }
  // timestamp: monotone with random millisecond-ish steps.
  Shape timestamp{"timestamp", ColumnEncoding::kDelta, {}};
  timestamp.values.resize(rows);
  int64_t now = 1'700'000'000'000LL;
  for (auto& v : timestamp.values) {
    now += static_cast<int64_t>(rng.NextBounded(1000));
    v = now;
  }

  const bool jit = fts::GetCpuFeatures().HasFusedScanAvx512();
  std::printf("rows = %zu, chunks = %zu, reps = %d, engine = %s%s\n\n", rows,
              (rows + kChunkSize - 1) / kChunkSize, reps,
              fts::ScanEngineToString(engine), jit ? ", JIT (512)" : "");
  std::printf("%-11s%-10s%6s%8s%10s%15s%13s%10s%14s%9s%10s\n", "shape",
              "encoding", "sel", "threads", "plain_ms", "compressed_ms",
              "decode_ms", "count_ms", "jit_count_ms", "jit_ms", "speedup");
  PrintRule('-', 116);

  for (Shape* shape_ptr : {&uniform, &clustered, &timestamp}) {
    Shape& shape = *shape_ptr;
    const fts::TablePtr plain =
        BuildTable(shape.values, ColumnEncoding::kPlain);
    const fts::TablePtr encoded = BuildTable(shape.values, shape.encoding);

    for (const double selectivity : {0.01, 0.1, 0.5, 0.9}) {
      // Threshold at the selectivity quantile: exact for the monotone
      // shape (sorted order = row order), statistical for the others --
      // the *measured* count is verified exactly either way.
      std::vector<int64_t> sorted = shape.values;
      std::nth_element(
          sorted.begin(),
          sorted.begin() + static_cast<ptrdiff_t>(
                               static_cast<double>(rows) * selectivity),
          sorted.end());
      const int64_t threshold =
          sorted[static_cast<size_t>(static_cast<double>(rows) *
                                     selectivity)];
      fts::ScanSpec spec;
      spec.predicates = {{"c0", fts::CompareOp::kLt, fts::Value(threshold)}};
      fts::ScanSpec count_spec = spec;
      count_spec.aggregates = {fts::AggregateSpec()};  // COUNT(*)

      const auto plain_scanner = fts::TableScanner::Prepare(plain, spec);
      FTS_CHECK(plain_scanner.ok());
      const auto expected = RunSerial(fts::ExecuteParallelScanCount,
                                      *plain_scanner,
                                      {ScanEngine::kSisdNoVec, 0});
      FTS_CHECK(expected.ok());

      for (const int threads : {1, 4}) {
        fts::TaskPool pool(threads);
        fts::ParallelScanOptions options;
        options.requested = {engine, 0};
        options.fallback = fts::FallbackPolicy::kStrict;
        options.threads = threads;
        options.pool = &pool;
        // JIT arms run the ladder, as a JIT query does; the warm-up below
        // lands every compile before the timed reps.
        fts::ParallelScanOptions jit_options = options;
        jit_options.requested = {ScanEngine::kJit, 512};
        jit_options.fallback = fts::FallbackPolicy::kLadder;

        // Self-verification: every arm's count must match the SISD
        // reference exactly. The compressed run's report carries the
        // run/block counters.
        fts::ExecutionReport compressed_report;
        FTS_CHECK(PrepareAndCount(encoded, spec, options,
                                  &compressed_report) == *expected);
        FTS_CHECK(PrepareAndCount(encoded, count_spec, options) ==
                  *expected);
        if (jit) {
          FTS_CHECK(PrepareAndCount(encoded, spec, jit_options) == *expected);
          FTS_CHECK(PrepareAndCount(encoded, count_spec, jit_options) ==
                    *expected);
          fts::GlobalJitCache().WaitForPendingCompiles();
        }
        AlignedVector<int64_t> scratch(kChunkSize);
        FTS_CHECK(DecodeThenScan(encoded, *plain_scanner, options, scratch) ==
                  *expected);

        // Interleaved sampling (see fig9): per-rep Prepare so the timed
        // region is the full per-query cost including zone-map consults.
        // The decode arm runs first: it streams the whole plain table and
        // evicts the caches, then the plain arm rereads that table and the
        // encoded arms follow each other over the encoded one.
        std::vector<double> plain_samples, compressed_samples,
            decode_samples, count_samples, jit_count_samples, jit_samples;
        const auto time = [&](std::vector<double>* samples, auto&& run) {
          fts::Stopwatch stopwatch;
          FTS_CHECK(run() == *expected);
          samples->push_back(stopwatch.ElapsedMillis());
        };
        for (int rep = 0; rep < reps; ++rep) {
          time(&decode_samples, [&] {
            return DecodeThenScan(encoded, *plain_scanner, options, scratch);
          });
          time(&plain_samples,
               [&] { return PrepareAndCount(plain, spec, options); });
          time(&compressed_samples,
               [&] { return PrepareAndCount(encoded, spec, options); });
          time(&count_samples,
               [&] { return PrepareAndCount(encoded, count_spec, options); });
          if (!jit) continue;
          time(&jit_count_samples, [&] {
            return PrepareAndCount(encoded, count_spec, jit_options);
          });
          time(&jit_samples,
               [&] { return PrepareAndCount(encoded, spec, jit_options); });
        }
        const double plain_ms = fts::Median(plain_samples);
        const double compressed_ms = fts::Median(compressed_samples);
        const double decode_ms = fts::Median(decode_samples);
        const double count_ms = fts::Median(count_samples);
        const double jit_count_ms = jit ? fts::Median(jit_count_samples) : 0.0;
        const double jit_ms = jit ? fts::Median(jit_samples) : 0.0;
        const double speedup =
            compressed_ms > 0.0 ? decode_ms / compressed_ms : 0.0;

        std::printf(
            "%-11s%-10s%6.2f%8d%10.3f%15.3f%13.3f%10.3f%14.3f%9.3f%9.2fx\n",
            shape.name, fts::ColumnEncodingName(shape.encoding), selectivity,
            threads, plain_ms, compressed_ms, decode_ms, count_ms,
            jit_count_ms, jit_ms, speedup);
        BenchLine line("fig_compressed_scan");
        line.Field("shape", shape.name)
            .Field("encoding", fts::ColumnEncodingName(shape.encoding))
            .Field("selectivity", selectivity)
            .Field("rows", static_cast<uint64_t>(rows))
            .Field("threads", threads)
            .Field("plain_ms", plain_ms)
            .Field("compressed_ms", compressed_ms)
            .Field("decode_scan_ms", decode_ms)
            .Field("count_ms", count_ms);
        if (jit) {
          line.Field("jit_count_ms", jit_count_ms).Field("jit_ms", jit_ms);
        }
        line.Field("speedup_vs_decode", speedup)
            .Field("rle_runs_classified",
                   compressed_report.rle_runs_classified)
            .Field("rle_runs_skipped", compressed_report.rle_runs_skipped)
            .Field("delta_blocks_pruned",
                   compressed_report.delta_blocks_pruned)
            .Field("delta_blocks_decoded",
                   compressed_report.delta_blocks_decoded)
            .Emit();
      }
    }
  }

  std::printf(
      "\nEvery configuration verified against the SISD reference count "
      "over the decoded plain table.\n");
  return 0;
}
