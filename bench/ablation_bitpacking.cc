// Future-Work ablation: bit-packed (null-suppressed) scans.
//
// The paper's closing section predicts that bit-packing "can be most
// beneficial" for the Fused Table Scan and names the gather-side
// extraction of single packed values as the main challenge. This harness
// measures that trade-off: per-code bit width on the x-axis, fused scan
// runtime for plain int32 values, uint32 dictionary codes, and b-bit
// packed codes, plus the bytes each representation transfers.
//
// Expected shape: packing shifts work from the memory bus to the CPU
// (Abadi et al.); with cache-resident tables the unpack ALU cost
// dominates, with memory-resident tables the 4x-32x byte reduction pays.

#include <cstdio>

#include "bench/bench_util.h"
#include "fts/common/random.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace {
using namespace fts::bench;
using fts::AlignedVector;
using fts::ScanEngine;

struct Variant {
  fts::TablePtr table;
  double megabytes = 0.0;
};

// Builds the same logical two-column data under one encoding.
Variant BuildVariant(const AlignedVector<int32_t>& a,
                     const AlignedVector<int32_t>& b,
                     fts::ColumnEncoding encoding) {
  fts::TableBuilder builder(
      {{"a", fts::DataType::kInt32}, {"b", fts::DataType::kInt32}});
  std::vector<fts::ColumnPtr> columns;
  double bytes = 0.0;
  for (const auto* values : {&a, &b}) {
    switch (encoding) {
      case fts::ColumnEncoding::kPlain: {
        AlignedVector<int32_t> copy = *values;
        bytes += static_cast<double>(copy.size() * 4);
        columns.push_back(
            std::make_shared<fts::ValueColumn<int32_t>>(std::move(copy)));
        break;
      }
      case fts::ColumnEncoding::kDictionary: {
        auto column = fts::DictionaryColumn<int32_t>::FromValues(*values);
        bytes += static_cast<double>(column.codes().size() * 4);
        columns.push_back(std::make_shared<fts::DictionaryColumn<int32_t>>(
            std::move(column)));
        break;
      }
      case fts::ColumnEncoding::kBitPacked: {
        auto column = fts::BitPackedColumn<int32_t>::FromValues(*values);
        bytes += static_cast<double>(column.packed_bytes());
        columns.push_back(std::make_shared<fts::BitPackedColumn<int32_t>>(
            std::move(column)));
        break;
      }
      default:
        FTS_CHECK_MSG(false, "ablation covers plain/dict/bit-packed only");
    }
  }
  FTS_CHECK(builder.AddChunk(std::move(columns)).ok());
  return {builder.Build(), bytes / 1024.0 / 1024.0};
}

}  // namespace

int main() {
  PrintTitle(
      "Future-Work ablation -- bit-packed scans (fused AVX-512, 2 "
      "predicates)");
  const ScanEngine engine =
      fts::ScanEngineAvailable(ScanEngine::kAvx512Fused512)
          ? ScanEngine::kAvx512Fused512
          : ScanEngine::kScalarFused;
  const size_t rows = ScaleRows(std::min(MaxRows(), size_t{8'000'000}));
  const int reps = Reps();
  std::printf("rows = %zu, reps = %d, engine = %s\n\n", rows, reps,
              fts::ScanEngineToString(engine));

  std::printf("%-10s %-8s %12s %12s %12s %14s\n", "dict size", "bits",
              "plain(ms)", "dict(ms)", "packed(ms)", "packed size");
  PrintRule('-', 74);

  for (const size_t dict_size :
       {4ul, 16ul, 256ul, 4096ul, 65536ul, 1048576ul}) {
    fts::Xoshiro256 rng(dict_size);
    // Values drawn from `dict_size` distinct ints; predicate selects ~25%.
    AlignedVector<int32_t> a(rows), b(rows);
    for (size_t i = 0; i < rows; ++i) {
      a[i] = static_cast<int32_t>(rng.NextBounded(dict_size)) * 3;
      b[i] = static_cast<int32_t>(rng.NextBounded(dict_size)) * 3;
    }
    const auto threshold =
        static_cast<int32_t>(dict_size * 3 / 4);  // ~25% match per column.
    fts::ScanSpec spec;
    spec.predicates = {{"a", fts::CompareOp::kGe, fts::Value(threshold * 3)},
                       {"b", fts::CompareOp::kGe, fts::Value(threshold * 3)}};

    const Variant plain = BuildVariant(a, b, fts::ColumnEncoding::kPlain);
    const Variant dict = BuildVariant(a, b, fts::ColumnEncoding::kDictionary);
    const Variant packed = BuildVariant(a, b, fts::ColumnEncoding::kBitPacked);

    auto count_variant = [&](const fts::TableScanner& scanner) {
      return RunSerial(fts::ExecuteParallelScanCount, scanner, {engine, 0});
    };
    auto prepare_variant = [&](const Variant& variant) {
      auto scanner = fts::TableScanner::Prepare(variant.table, spec);
      FTS_CHECK(scanner.ok());
      return std::move(*scanner);
    };

    // All three must agree before timing.
    const auto expected = count_variant(prepare_variant(plain));
    FTS_CHECK(expected.ok());
    FTS_CHECK(*count_variant(prepare_variant(dict)) == *expected);
    FTS_CHECK(*count_variant(prepare_variant(packed)) == *expected);

    auto time_variant = [&](const Variant& variant) {
      const fts::TableScanner scanner = prepare_variant(variant);
      return MedianMillis(reps, [&] {
        fts::DoNotOptimizeAway(count_variant(scanner).ok());
      });
    };

    const int bits = fts::BitPackedColumn<int32_t>::BitWidthFor(dict_size);
    std::printf("%-10zu %-8d %12.3f %12.3f %12.3f %11.1f MiB\n", dict_size,
                bits, time_variant(plain), time_variant(dict),
                time_variant(packed), packed.megabytes);
  }
  std::printf(
      "\npacked transfers %dx fewer bytes at small dictionaries; whether "
      "that wins depends on\nwhere the table lives (memory-resident: bus "
      "savings; cache-resident: unpack cost).\n",
      32);
  return 0;
}
