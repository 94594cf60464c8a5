#include "fts/storage/table_statistics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <type_traits>
#include <vector>

#include "fts/common/macros.h"
#include "fts/obs/trace.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/value_column.h"

namespace fts {
namespace {

// Sampled values are kept as monotone unsigned keys: unsigned key order is
// the values' numeric order, and two keys are equal exactly when the values
// widened to double compare equal (-0.0 maps to +0.0; NaN gets no key).
// Types a 32-bit key represents exactly (integers up to 32 bits, float)
// keep 32-bit keys, so the sample costs no more memory than the doubles
// it replaces; 64-bit types take the double's 64-bit key, so int64 values
// above 2^53 collide as their widened doubles do.
uint64_t OrderedKey(double v) {
  if (v == 0.0) v = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}
uint32_t OrderedKey(float v) {
  if (v == 0.0f) v = 0.0f;
  const uint32_t bits = std::bit_cast<uint32_t>(v);
  constexpr uint32_t kSign = uint32_t{1} << 31;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

// LSD radix sort of `keys` over 8-bit digits, using `scratch` (same size)
// as the ping-pong buffer. A pass whose digit is the same for every key
// moves nothing and is skipped — sampled values often share their high
// bytes.
template <typename Key>
void RadixSort(std::vector<Key>* keys, std::vector<Key>* scratch) {
  constexpr int kDigits = sizeof(Key);
  size_t counts[kDigits][256] = {};
  for (const Key key : *keys) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  const size_t n = keys->size();
  for (int d = 0; d < kDigits; ++d) {
    size_t* count = counts[d];
    if (count[((*keys)[0] >> (8 * d)) & 0xFF] == n) continue;
    size_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (const Key key : *keys) {
      (*scratch)[count[(key >> (8 * d)) & 0xFF]++] = key;
    }
    keys->swap(*scratch);
  }
}

// Distinct keys in `keys` (possibly sorted here). Keys whose range is
// under 32 times their number (ids, narrow frames, timestamps) are counted
// in a bitmap over that range, no larger than the sort's scratch buffer;
// sparser keys are radix-sorted.
template <typename Key>
size_t CountDistinctKeys(std::vector<Key>* keys) {
  if (keys->empty()) return 0;
  const auto [lo, hi] = std::minmax_element(keys->begin(), keys->end());
  const uint64_t base = *lo;
  const uint64_t range = static_cast<uint64_t>(*hi) - base;
  if (range / 32 < keys->size()) {
    std::vector<uint64_t> seen(range / 64 + 1);
    size_t distinct = 0;
    for (const Key key : *keys) {
      const uint64_t offset = key - base;
      uint64_t& word = seen[offset / 64];
      const uint64_t bit = uint64_t{1} << (offset % 64);
      distinct += (word & bit) == 0;
      word |= bit;
    }
    return distinct;
  }
  std::vector<Key> scratch(keys->size());
  RadixSort(keys, &scratch);
  return static_cast<size_t>(std::unique(keys->begin(), keys->end()) -
                             keys->begin());
}

// Accumulates stats for one column across chunks.
struct Accumulator {
  bool any = false;
  double min = 0.0;
  double max = 0.0;
  // Strided samples of every chunk without a dictionary: the OrderedKey
  // of each non-NaN value (one of the two vectors, by the column's type
  // width), and how many sampled values were NaN.
  std::vector<uint32_t> keys32;
  std::vector<uint64_t> keys64;
  size_t sampled_nans = 0;
  uint64_t exact_distinct_hint = 0;  // From dictionaries; max over chunks.
  bool all_dictionary = true;

  void AddValue(double v) {
    if (!any) {
      min = v;
      max = v;
      any = true;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
  }

  template <typename T>
  void AddSample(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(v)) {
        ++sampled_nans;
        return;
      }
    }
    if constexpr (std::is_same_v<T, float>) {
      keys32.push_back(OrderedKey(v));
    } else if constexpr (std::is_integral_v<T> && sizeof(T) <= 4) {
      // Exact in double; flipping the sign bit orders signed values.
      keys32.push_back(std::is_signed_v<T>
                           ? static_cast<uint32_t>(static_cast<int32_t>(v)) ^
                                 (uint32_t{1} << 31)
                           : static_cast<uint32_t>(v));
    } else {
      keys64.push_back(OrderedKey(static_cast<double>(v)));
    }
  }

  size_t sampled() const {
    return keys32.size() + keys64.size() + sampled_nans;
  }

  // Distinct sampled values under ==, as a hash set of doubles counts
  // them: 0.0 and -0.0 are one value, and every NaN is a value of its own.
  size_t CountDistinct() {
    return CountDistinctKeys(&keys32) + CountDistinctKeys(&keys64) +
           sampled_nans;
  }
};

// Chunks without a dictionary (plain, RLE, FoR, delta) take min/max from
// the zone map ingest built with the SIMD reduction kernels; widening to
// double is monotone, so its exact bounds give the min/max the row loop
// would (equal as doubles: a float extreme of zero may carry the other
// zero's sign). Only a chunk without a valid zone map (hand-built, or a
// float chunk holding NaN) pays the row loop, whose NaN handling the
// statistics keep. The evenly strided sample for the distinct estimate
// takes the rows a plain twin would, so every encoding describes the same
// column identically. `value_at(i)` reads row i as T and is called once
// per visited row, in ascending row order (the encoded readers keep a
// cursor).
template <typename T, typename ValueAt>
void ScanValueChunk(size_t n, ValueAt value_at, const ZoneMap* zone,
                    size_t sample_limit, Accumulator* acc) {
  const size_t stride =
      std::max<size_t>(1, n / std::max<size_t>(1, sample_limit));
  if (zone != nullptr) {
    acc->AddValue(ValueAs<double>(zone->min));
    acc->AddValue(ValueAs<double>(zone->max));
    for (size_t i = 0; i < n; i += stride) acc->AddSample<T>(value_at(i));
  } else {
    for (size_t i = 0; i < n; ++i) {
      const T v = value_at(i);
      acc->AddValue(static_cast<double>(v));
      if (i % stride == 0) acc->AddSample<T>(v);
    }
  }
  acc->all_dictionary = false;
}

// Dictionary-backed encodings (kDictionary, kBitPacked) expose min/max and
// exact distinct counts straight from the sorted dictionary.
template <typename T>
void ScanSortedDictionary(const std::vector<T>& dict, Accumulator* acc) {
  if (!dict.empty()) {
    acc->AddValue(static_cast<double>(dict.front()));
    acc->AddValue(static_cast<double>(dict.back()));
  }
  acc->exact_distinct_hint =
      std::max<uint64_t>(acc->exact_distinct_hint, dict.size());
}

}  // namespace

TableStatistics TableStatistics::Compute(const Table& table,
                                         size_t sample_limit) {
  TableStatistics stats;
  stats.row_count_ = table.row_count();
  stats.columns_.resize(table.column_count());

  for (size_t c = 0; c < table.column_count(); ++c) {
    Accumulator acc;
    for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
      const BaseColumn& column = table.chunk(chunk_id).column(c);
      const ZoneMap* zone = table.chunk(chunk_id).zone_map(c);
      DispatchDataType(column.data_type(), [&](auto tag) {
        using T = decltype(tag);
        switch (column.encoding()) {
          case ColumnEncoding::kDictionary:
            ScanSortedDictionary(
                static_cast<const DictionaryColumn<T>&>(column)
                    .dictionary(),
                &acc);
            break;
          case ColumnEncoding::kBitPacked:
            ScanSortedDictionary(
                static_cast<const BitPackedColumn<T>&>(column).dictionary(),
                &acc);
            break;
          case ColumnEncoding::kPlain: {
            const AlignedVector<T>& values =
                static_cast<const ValueColumn<T>&>(column).values();
            ScanValueChunk<T>(
                values.size(), [&](size_t i) { return values[i]; }, zone,
                sample_limit, &acc);
            break;
          }
          case ColumnEncoding::kRle: {
            // Rows are read in ascending order: a run cursor, no search.
            const auto& rle = static_cast<const RleColumn<T>&>(column);
            ScanValueChunk<T>(
                rle.size(),
                [&rle, run = size_t{0}](size_t row) mutable {
                  while (rle.run_ends()[run] <= row) ++run;
                  return rle.run_values()[run];
                },
                zone, sample_limit, &acc);
            break;
          }
          case ColumnEncoding::kFor:
            // FoR and delta encode integer columns only.
            if constexpr (std::is_integral_v<T>) {
              const auto& fr = static_cast<const ForColumn<T>&>(column);
              ScanValueChunk<T>(
                  fr.size(), [&fr](size_t row) { return fr.ValueAt(row); },
                  zone, sample_limit, &acc);
            }
            break;
          case ColumnEncoding::kDelta:
            if constexpr (std::is_integral_v<T>) {
              // Ascending rows: decode each block once (ValueAt would
              // reconstruct the block prefix on every call).
              const auto& delta = static_cast<const DeltaColumn<T>&>(column);
              ScanValueChunk<T>(
                  delta.size(),
                  [&delta, block = SIZE_MAX,
                   values = std::array<T, kDeltaBlockRows>()](
                      size_t row) mutable {
                    if (row / kDeltaBlockRows != block) {
                      block = row / kDeltaBlockRows;
                      delta.DecodeBlock(block, values.data());
                    }
                    return values[row % kDeltaBlockRows];
                  },
                  zone, sample_limit, &acc);
            }
            break;
        }
      });
    }
    ColumnStatistics& out = stats.columns_[c];
    out.row_count = table.row_count();
    out.min = acc.min;
    out.max = acc.max;
    // Zone list for the zone-weighted selectivity model; all-or-nothing so
    // the estimate never mixes bounded and unbounded chunks.
    out.zones.reserve(table.chunk_count());
    for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
      const ZoneMap* zone = table.chunk(chunk_id).zone_map(c);
      if (zone == nullptr) {
        out.zones.clear();
        break;
      }
      out.zones.push_back({ValueAs<double>(zone->min),
                           ValueAs<double>(zone->max), zone->row_count});
    }
    if (acc.all_dictionary) {
      out.distinct_count = static_cast<double>(acc.exact_distinct_hint);
    } else if (acc.sampled() > 0) {
      // Scale the sampled distinct count linearly, capped by the row count.
      // A deliberate simple estimator; good enough for ordering predicates.
      const double scale = static_cast<double>(table.row_count()) /
                           static_cast<double>(acc.sampled());
      out.distinct_count =
          std::min(static_cast<double>(table.row_count()),
                   static_cast<double>(acc.CountDistinct()) *
                       std::sqrt(scale));
    }
    out.distinct_count = std::max(out.distinct_count, 1.0);
  }
  return stats;
}

const ColumnStatistics& TableStatistics::column(size_t index) const {
  FTS_CHECK(index < columns_.size());
  return columns_[index];
}

namespace {

// Uniform-distribution selectivity over one [min, max] interval. The
// distinct count is the column-global estimate; within a zone it only
// feeds the 1/distinct equality terms, where a modest overestimate is
// harmless for predicate ordering.
double SelectivityFromBounds(double min, double max, double distinct,
                             CompareOp op, double v) {
  const double width = max - min;
  auto clamp01 = [](double x) { return std::clamp(x, 0.0, 1.0); };

  switch (op) {
    case CompareOp::kEq:
      if (v < min || v > max) return 0.0;
      return clamp01(1.0 / distinct);
    case CompareOp::kNe:
      if (v < min || v > max) return 1.0;
      return clamp01(1.0 - 1.0 / distinct);
    case CompareOp::kLt:
      if (v <= min) return 0.0;
      if (v > max) return 1.0;
      if (width <= 0.0) return 0.0;
      return clamp01((v - min) / width);
    case CompareOp::kLe:
      if (v < min) return 0.0;
      if (v >= max) return 1.0;
      if (width <= 0.0) return 1.0;
      return clamp01((v - min) / width + 1.0 / distinct);
    case CompareOp::kGt:
      if (v >= max) return 0.0;
      if (v < min) return 1.0;
      if (width <= 0.0) return 0.0;
      return clamp01((max - v) / width);
    case CompareOp::kGe:
      if (v > max) return 0.0;
      if (v <= min) return 1.0;
      if (width <= 0.0) return 1.0;
      return clamp01((max - v) / width + 1.0 / distinct);
  }
  __builtin_unreachable();
}

}  // namespace

double TableStatistics::EstimateSelectivity(size_t column_index, CompareOp op,
                                            const Value& value) const {
  const ColumnStatistics& stats = column(column_index);
  if (stats.row_count == 0) return 0.0;
  const double v = ValueAs<double>(value);

  // Zone-weighted model: estimate per chunk from its own bounds and weight
  // by its rows. On clustered data the zones are narrow and disjoint, so
  // chunks the predicate cannot touch contribute exactly 0 — far tighter
  // than prorating over the global [min, max].
  if (!stats.zones.empty()) {
    double matched_rows = 0.0;
    uint64_t total_rows = 0;
    for (const ColumnZone& zone : stats.zones) {
      matched_rows += SelectivityFromBounds(zone.min, zone.max,
                                            stats.distinct_count, op, v) *
                      static_cast<double>(zone.row_count);
      total_rows += zone.row_count;
    }
    if (total_rows > 0) {
      return std::clamp(matched_rows / static_cast<double>(total_rows), 0.0,
                        1.0);
    }
  }
  return SelectivityFromBounds(stats.min, stats.max, stats.distinct_count, op,
                               v);
}

std::shared_ptr<const TableStatistics> GetCachedStatistics(
    const TablePtr& table) {
  FTS_CHECK(table != nullptr);
  struct Entry {
    std::weak_ptr<const Table> guard;
    std::shared_ptr<const TableStatistics> statistics;
  };
  // Function-local static reference, never destroyed (style guide:
  // static storage duration objects must be trivially destructible).
  static std::mutex& mutex = *new std::mutex();
  static std::map<const Table*, Entry>& cache =
      *new std::map<const Table*, Entry>();

  std::lock_guard<std::mutex> lock(mutex);
  // Opportunistically drop entries whose table died (address reuse would
  // otherwise serve stale statistics).
  for (auto it = cache.begin(); it != cache.end();) {
    it = it->second.guard.expired() ? cache.erase(it) : std::next(it);
  }
  const auto it = cache.find(table.get());
  if (it != cache.end()) return it->second.statistics;
  std::shared_ptr<const TableStatistics> statistics;
  {
    obs::TraceSpan span("table_statistics", "storage");
    statistics = std::make_shared<const TableStatistics>(
        TableStatistics::Compute(*table));
  }
  cache[table.get()] = Entry{table, statistics};
  return statistics;
}

}  // namespace fts
