// Compressed-domain scan figure (tentpole extension beyond the paper):
// RLE / frame-of-reference / delta columns filtered *without decoding*,
// against the decode-then-scan baseline every engine without
// compressed-domain support must pay. Three data shapes, each under its
// natural encoding plus the others that fit:
//
//   uniform    random values              -- RLE-hostile (runs of 1); FoR
//                                            packs the narrow domain
//   clustered  runs of ~512 equal values  -- RLE classifies each run once
//              cycling the whole domain      and emits position ranges;
//              per chunk                     zone maps cannot prune
//   timestamp  monotone increments        -- delta blocks answer from
//                                            block min/max; zone maps and
//                                            block pruning compound
//
// Per configuration, three medians over the identical logical data:
//   plain_ms        fused scan over the pre-decoded plain table
//   compressed_ms   Prepare + count over the encoded table (the
//                   compressed-domain path under test)
//   decode_scan_ms  decode every chunk to a plain buffer, then the same
//                   fused scan -- what "decompress first" actually costs
//
// Counts are self-verified against a SISD scan of the plain table.
//
// Emits one machine-readable line per configuration:
//   BENCH {"figure":"fig_compressed_scan","shape":"...","encoding":"...",
//          "selectivity":...,"plain_ms":...,"compressed_ms":...,
//          "decode_scan_ms":...,"speedup_vs_decode":...,...}
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
                        ScanEngine engine, AlignedVector<int64_t>& scratch) {
  for (fts::ChunkId chunk = 0; chunk < encoded->chunk_count(); ++chunk) {
    DecodeColumn(encoded->chunk(chunk).column(0), scratch.data());
    fts::DoNotOptimizeAway(scratch[scratch.size() / 2]);
  }
  const auto count =
      RunSerial(fts::ExecuteParallelScanCount, plain_scanner, {engine, 0});
  FTS_CHECK(count.ok());
  return *count;
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
  // clustered: runs of ~512 equal values cycling a 1024-value domain, so
  // every chunk spans the domain and zone maps never prune -- the RLE run
  // classifier does all the work.
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

  std::printf("rows = %zu, chunks = %zu, reps = %d, engine = %s\n\n", rows,
              (rows + kChunkSize - 1) / kChunkSize, reps,
              fts::ScanEngineToString(engine));
  std::printf("%-11s%-10s%13s%11s%15s%17s%10s\n", "shape", "encoding",
              "selectivity", "plain_ms", "compressed_ms", "decode_scan_ms",
              "speedup");
  PrintRule('-', 87);

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

      const auto plain_scanner = fts::TableScanner::Prepare(plain, spec);
      FTS_CHECK(plain_scanner.ok());
      const auto expected = RunSerial(fts::ExecuteParallelScanCount,
                                      *plain_scanner,
                                      {ScanEngine::kSisdNoVec, 0});
      FTS_CHECK(expected.ok());

      // Self-verification: compressed-domain and decode-then-scan counts
      // must match the SISD reference exactly. The compressed run's report
      // carries the run/block counters.
      const auto compressed_scanner =
          fts::TableScanner::Prepare(encoded, spec);
      FTS_CHECK(compressed_scanner.ok());
      fts::ExecutionReport compressed_report;
      FTS_CHECK(*RunSerial(fts::ExecuteParallelScanCount, *compressed_scanner,
                           {engine, 0}, &compressed_report) == *expected);
      AlignedVector<int64_t> scratch(kChunkSize);
      FTS_CHECK(DecodeThenScan(encoded, *plain_scanner, engine, scratch) ==
                *expected);

      // Interleaved sampling (see fig9): per-rep Prepare so the timed
      // region is the full per-query cost including zone-map consults.
      std::vector<double> plain_samples, compressed_samples, decode_samples;
      for (int rep = 0; rep < reps; ++rep) {
        {
          fts::Stopwatch stopwatch;
          const auto scanner = fts::TableScanner::Prepare(plain, spec);
          FTS_CHECK(*RunSerial(fts::ExecuteParallelScanCount, *scanner,
                               {engine, 0}) == *expected);
          plain_samples.push_back(stopwatch.ElapsedMillis());
        }
        {
          fts::Stopwatch stopwatch;
          const auto scanner = fts::TableScanner::Prepare(encoded, spec);
          FTS_CHECK(*RunSerial(fts::ExecuteParallelScanCount, *scanner,
                               {engine, 0}) == *expected);
          compressed_samples.push_back(stopwatch.ElapsedMillis());
        }
        {
          fts::Stopwatch stopwatch;
          FTS_CHECK(DecodeThenScan(encoded, *plain_scanner, engine,
                                   scratch) == *expected);
          decode_samples.push_back(stopwatch.ElapsedMillis());
        }
      }
      const double plain_ms = fts::Median(plain_samples);
      const double compressed_ms = fts::Median(compressed_samples);
      const double decode_ms = fts::Median(decode_samples);
      const double speedup =
          compressed_ms > 0.0 ? decode_ms / compressed_ms : 0.0;

      std::printf("%-11s%-10s%13.2f%11.3f%15.3f%17.3f%9.2fx\n", shape.name,
                  fts::ColumnEncodingName(shape.encoding), selectivity,
                  plain_ms, compressed_ms, decode_ms, speedup);
      BenchLine("fig_compressed_scan")
          .Field("shape", shape.name)
          .Field("encoding", fts::ColumnEncodingName(shape.encoding))
          .Field("selectivity", selectivity)
          .Field("rows", static_cast<uint64_t>(rows))
          .Field("plain_ms", plain_ms)
          .Field("compressed_ms", compressed_ms)
          .Field("decode_scan_ms", decode_ms)
          .Field("speedup_vs_decode", speedup)
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

  std::printf(
      "\nEvery configuration verified against the SISD reference count "
      "over the decoded plain table.\n");
  return 0;
}
