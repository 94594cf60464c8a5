#include "fts/scan/table_scan.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "fts/common/string_util.h"
#include "fts/obs/metrics.h"
#include "fts/obs/trace.h"
#include "fts/scan/sisd_scan.h"
#include "fts/simd/dispatch.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/delta_column.h"
#include "fts/storage/dictionary_column.h"
#include "fts/storage/for_column.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/zone_map.h"

namespace fts {
namespace {

// Bytes a scan of this column's chunk actually touches: the packed stream
// for bit-packed / frame-of-reference columns, the run and block metadata
// for the compressed-domain encodings, the scan representation (codes for
// dictionary columns, values otherwise) for the rest. Used for the
// bytes-skipped estimate in PruningSummary.
uint64_t ColumnScanBytes(const BaseColumn& column) {
  if (column.encoding() == ColumnEncoding::kRle) {
    // Run values + cumulative ends; run-granular evaluation never touches
    // per-row data.
    uint64_t bytes = 0;
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      bytes = static_cast<uint64_t>(
                  static_cast<const RleColumn<T>&>(column).run_count()) *
              (sizeof(T) + sizeof(uint32_t));
    });
    return bytes;
  }
  if (column.encoding() == ColumnEncoding::kDelta) {
    uint64_t bytes = 0;
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      if constexpr (std::is_integral_v<T>) {
        bytes = static_cast<const DeltaColumn<T>&>(column).packed_bytes();
      }
    });
    return bytes;
  }
  const int bits = column.packed_bit_width();
  if (bits != 0) {
    return (static_cast<uint64_t>(column.size()) * bits + 7) / 8;
  }
  return static_cast<uint64_t>(column.size()) *
         DataTypeSize(column.scan_type());
}

// Builds the ScanStage for one predicate against one chunk's column.
// Returns true in `*dropped` when the predicate is a tautology for this
// chunk and sets `*impossible` when it cannot match. `zone` is the chunk's
// zone map for this column (nullptr when absent or pruning is disabled);
// bounds that disprove or prove the predicate short-circuit stage
// construction exactly like dictionary translation does, so serial and
// parallel executors see one unified impossible/dropped mechanism.
// Predicates over RLE/delta columns that survive zone classification fill
// `*compressed_stage` and set `*is_compressed` instead of building a
// kernel stage (fts/scan/compressed_scan.h). `*selectivity` receives the
// cost model's estimate of the fraction of this chunk's rows the
// predicate keeps, from the same bounds zone classification consults
// (0.5 when no bounds exist).
Status BuildStage(const BaseColumn& column, const ZoneMap* zone,
                  const PredicateSpec& predicate, ScanStage* stage,
                  CompressedScanStage* compressed_stage, bool* is_compressed,
                  bool* dropped, bool* impossible, double* selectivity) {
  *dropped = false;
  *impossible = false;
  *is_compressed = false;
  *selectivity = 0.5;

  if (column.encoding() == ColumnEncoding::kFor) {
    // Frame-of-reference: rebase the literal into the delta domain, after
    // which the chunk scans through the packed-code path like a
    // bit-packed column — no decode anywhere. The literal translation
    // mirrors sorted-dictionary translation: out-of-frame literals are
    // decided outright, in-frame literals compare exactly because
    // value -> value - base is monotone over the frame.
    FTS_ASSIGN_OR_RETURN(const Value casted,
                         CastValue(predicate.value, column.data_type()));
    uint64_t delta = 0;
    uint32_t max_code = 0;
    bool below = false;  // literal < base (below the frame)
    bool above = false;  // literal > base + max_delta (above the frame)
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      if constexpr (std::is_integral_v<T>) {
        const auto& fr = static_cast<const ForColumn<T>&>(column);
        const T literal = ValueAs<T>(casted);
        const T frame_max = static_cast<T>(
            static_cast<uint64_t>(fr.base()) + fr.max_delta());
        below = literal < fr.base();
        above = literal > frame_max;
        max_code = static_cast<uint32_t>(fr.max_delta());
        if (!below && !above) {
          delta = ForColumn<T>::DeltaOf(literal, fr.base());
        }
      }
    });
    if (below || above) {
      // Every stored value is >= base (below) or <= base + max_delta
      // (above); the comparison is decided for the whole chunk.
      switch (predicate.op) {
        case CompareOp::kEq:
          *impossible = true;
          return Status::Ok();
        case CompareOp::kNe:
          *dropped = true;
          return Status::Ok();
        case CompareOp::kLt:
        case CompareOp::kLe:
          *(below ? impossible : dropped) = true;
          return Status::Ok();
        case CompareOp::kGt:
        case CompareOp::kGe:
          *(below ? dropped : impossible) = true;
          return Status::Ok();
      }
      __builtin_unreachable();
    }
    // In-frame literal: classify against the delta-domain code bounds
    // (min delta is 0 by construction — the base is the chunk minimum).
    switch (ClassifyZone<uint32_t>(0, max_code, predicate.op,
                                   static_cast<uint32_t>(delta))) {
      case ZoneFate::kNone:
        *impossible = true;
        return Status::Ok();
      case ZoneFate::kAll:
        *dropped = true;
        return Status::Ok();
      case ZoneFate::kMaybe:
        break;
    }
    *selectivity = cost::EstimateUniformSelectivity<uint32_t>(
        0, max_code, predicate.op, static_cast<uint32_t>(delta));
    stage->data = column.scan_data();
    stage->type = ScanElementType::kU32;
    stage->op = predicate.op;
    stage->value.u32 = static_cast<uint32_t>(delta);
    stage->packed_bits = column.packed_bit_width();
    stage->encoding = static_cast<uint8_t>(ColumnEncoding::kFor);
    if (static_cast<uint64_t>(column.size()) * stage->packed_bits >=
        (uint64_t{1} << 32)) {
      return Status::InvalidArgument(StrFormat(
          "frame-of-reference chunk too large (%zu rows x %d bits); "
          "partition the table into smaller chunks",
          column.size(), stage->packed_bits));
    }
    return Status::Ok();
  }

  if (column.encoding() == ColumnEncoding::kRle ||
      column.encoding() == ColumnEncoding::kDelta) {
    // Compressed-domain stage: keep the predicate in the value domain and
    // let the range builder classify runs/blocks at execution. The zone
    // map still gets first say so whole-chunk facts prune here like
    // everywhere else.
    FTS_ASSIGN_OR_RETURN(const Value casted,
                         CastValue(predicate.value, column.data_type()));
    if (zone != nullptr && zone->valid) {
      ZoneFate fate = ZoneFate::kMaybe;
      DispatchDataType(column.data_type(), [&](auto tag) {
        using T = decltype(tag);
        fate = ClassifyZone<T>(ValueAs<T>(zone->min), ValueAs<T>(zone->max),
                               predicate.op, ValueAs<T>(casted));
      });
      if (fate == ZoneFate::kNone) {
        *impossible = true;
        return Status::Ok();
      }
      if (fate == ZoneFate::kAll) {
        *dropped = true;
        return Status::Ok();
      }
      DispatchDataType(column.data_type(), [&](auto tag) {
        using T = decltype(tag);
        *selectivity = cost::EstimateUniformSelectivity<T>(
            ValueAs<T>(zone->min), ValueAs<T>(zone->max), predicate.op,
            ValueAs<T>(casted));
      });
    }
    compressed_stage->column = &column;
    compressed_stage->op = predicate.op;
    compressed_stage->value = casted;
    *is_compressed = true;
    return Status::Ok();
  }

  if (column.encoding() == ColumnEncoding::kDictionary ||
      column.encoding() == ColumnEncoding::kBitPacked) {
    // Rewrite into code space. Dictionary code vectors are uint32 and
    // directly scannable (paper assumption 3); bit-packed code streams are
    // scanned through the kernels' unpack path (paper Future Work).
    DictionaryPredicate translated;
    Status status = DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      auto casted = CastValue(predicate.value, column.data_type());
      if (!casted.ok()) return casted.status();
      if (column.encoding() == ColumnEncoding::kDictionary) {
        translated =
            static_cast<const DictionaryColumn<T>&>(column)
                .TranslatePredicate(predicate.op, ValueAs<T>(*casted));
      } else {
        translated =
            static_cast<const BitPackedColumn<T>&>(column)
                .TranslatePredicate(predicate.op, ValueAs<T>(*casted));
      }
      return Status::Ok();
    });
    FTS_RETURN_IF_ERROR(status);
    switch (translated.kind) {
      case DictionaryPredicate::Kind::kNone:
        *impossible = true;
        return Status::Ok();
      case DictionaryPredicate::Kind::kAll:
        *dropped = true;
        return Status::Ok();
      case DictionaryPredicate::Kind::kCompare:
        if (zone != nullptr && zone->has_codes) {
          // Code-space classification catches chunk-level facts the
          // whole-dictionary translation cannot see — e.g. a chunk whose
          // rows all share one code, or whose codes sit entirely on one
          // side of the translated boundary.
          switch (ClassifyZone<uint32_t>(zone->min_code, zone->max_code,
                                         translated.op, translated.code)) {
            case ZoneFate::kNone:
              *impossible = true;
              return Status::Ok();
            case ZoneFate::kAll:
              *dropped = true;
              return Status::Ok();
            case ZoneFate::kMaybe:
              break;
          }
          *selectivity = cost::EstimateUniformSelectivity<uint32_t>(
              zone->min_code, zone->max_code, translated.op,
              translated.code);
        }
        stage->data = column.scan_data();
        stage->type = ScanElementType::kU32;
        stage->op = translated.op;
        stage->value.u32 = translated.code;
        stage->packed_bits = column.packed_bit_width();
        stage->encoding = static_cast<uint8_t>(column.encoding());
        if (stage->packed_bits != 0 &&
            static_cast<uint64_t>(column.size()) * stage->packed_bits >=
                (uint64_t{1} << 32)) {
          // The kernels compute bit offsets in 32-bit lanes.
          return Status::InvalidArgument(StrFormat(
              "bit-packed chunk too large (%zu rows x %d bits); "
              "partition the table into smaller chunks",
              column.size(), stage->packed_bits));
        }
        return Status::Ok();
    }
    __builtin_unreachable();
  }

  // Plain column: cast the search value to the column type.
  FTS_ASSIGN_OR_RETURN(const ScanElementType element_type,
                       ScanElementTypeFromDataType(column.scan_type()));
  FTS_ASSIGN_OR_RETURN(const Value casted,
                       CastValue(predicate.value, column.data_type()));
  if (zone != nullptr && zone->valid) {
    ZoneFate fate = ZoneFate::kMaybe;
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      fate = ClassifyZone<T>(ValueAs<T>(zone->min), ValueAs<T>(zone->max),
                             predicate.op, ValueAs<T>(casted));
    });
    if (fate == ZoneFate::kNone) {
      *impossible = true;
      return Status::Ok();
    }
    if (fate == ZoneFate::kAll) {
      *dropped = true;
      return Status::Ok();
    }
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      *selectivity = cost::EstimateUniformSelectivity<T>(
          ValueAs<T>(zone->min), ValueAs<T>(zone->max), predicate.op,
          ValueAs<T>(casted));
    });
  }
  stage->data = column.scan_data();
  stage->type = element_type;
  stage->op = predicate.op;
  stage->value = MakeScanValue(element_type, casted);
  stage->encoding = static_cast<uint8_t>(ColumnEncoding::kPlain);
  return Status::Ok();
}

// Value domain of a column type, selecting the AggAccumulator fields and
// widening rule an aggregate term uses.
AggDomain AggDomainForType(DataType type) {
  AggDomain domain = AggDomain::kSigned;
  DispatchDataType(type, [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_floating_point_v<T>) {
      domain = AggDomain::kFloat;
    } else if constexpr (std::is_signed_v<T>) {
      domain = AggDomain::kSigned;
    } else {
      domain = AggDomain::kUnsigned;
    }
  });
  return domain;
}

// Builds the AggTerm for one aggregate against one chunk's column and
// appends it to `plan`. Dictionary / bit-packed columns get a decode table
// widened to 8 bytes per entry (owned by plan->agg_dicts) so the kernels
// fold decoded values without per-row type dispatch. Columns the kernels
// cannot read (RLE, FoR, delta, 8/16-bit plain) get an op/domain-only
// term and send the chunk through the positions fold, as does any value
// term of a chunk with compressed-domain stages (`plan->compressed` is
// already built). COUNT terms read no column and never need the sink.
void BuildAggTerm(const Chunk& chunk,
                  const std::optional<size_t>& column_index, AggOp op,
                  TableScanner::ChunkPlan* plan) {
  AggTerm term;
  term.op = op;
  if (op == AggOp::kCount || !column_index.has_value()) {
    plan->agg_terms.push_back(term);
    return;
  }
  if (!plan->compressed.empty()) plan->agg_positions = true;
  const BaseColumn& column = chunk.column(*column_index);
  term.domain = AggDomainForType(column.data_type());
  const StatusOr<ScanElementType> element =
      ScanElementTypeFromDataType(column.scan_type());
  if (column.encoding() == ColumnEncoding::kDictionary ||
      column.encoding() == ColumnEncoding::kBitPacked) {
    term.data = column.scan_data();
    term.type = ScanElementType::kU32;
    term.packed_bits = column.packed_bit_width();
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      const std::vector<T>& dict =
          column.encoding() == ColumnEncoding::kDictionary
              ? static_cast<const DictionaryColumn<T>&>(column).dictionary()
              : static_cast<const BitPackedColumn<T>&>(column).dictionary();
      if constexpr (std::is_floating_point_v<T>) {
        auto widened =
            std::make_shared<std::vector<double>>(dict.begin(), dict.end());
        term.dict = widened->data();
        plan->agg_dicts.emplace_back(std::move(widened));
      } else if constexpr (std::is_signed_v<T>) {
        auto widened =
            std::make_shared<std::vector<int64_t>>(dict.begin(), dict.end());
        term.dict = widened->data();
        plan->agg_dicts.emplace_back(std::move(widened));
      } else {
        auto widened = std::make_shared<std::vector<uint64_t>>(dict.begin(),
                                                               dict.end());
        term.dict = widened->data();
        plan->agg_dicts.emplace_back(std::move(widened));
      }
    });
  } else if (column.encoding() == ColumnEncoding::kPlain && element.ok()) {
    // Plain 32/64-bit column: the SIMD gathers read the values directly.
    term.type = *element;
    term.data = column.scan_data();
  } else {
    plan->agg_positions = true;
  }
  plan->agg_terms.push_back(term);
}

// When every conjunct of a chunk was proved tautological and every term is
// answerable from zone metadata alone (COUNT from the row count, MIN/MAX
// from the bounds), precomputes the chunk's contribution so execution
// skips the chunk's data entirely. SUM needs the actual values, so any SUM
// term disables the shortcut.
void TryAggZoneShortcut(const Chunk& chunk,
                        const std::vector<std::optional<size_t>>& columns,
                        TableScanner::ChunkPlan* plan) {
  if (!plan->stages.empty() || !plan->compressed.empty() ||
      plan->impossible || plan->row_count == 0) {
    return;
  }
  std::vector<AggAccumulator> partials(plan->agg_terms.size());
  for (size_t i = 0; i < plan->agg_terms.size(); ++i) {
    const AggTerm& term = plan->agg_terms[i];
    AggAccumulator& acc = partials[i];
    acc.count = plan->row_count;
    if (term.op == AggOp::kCount) continue;
    if (term.op == AggOp::kSum) return;  // Zone maps hold no sums.
    const ZoneMap* zone = chunk.zone_map(*columns[i]);
    if (zone == nullptr || !zone->valid) return;
    const Value& bound = term.op == AggOp::kMin ? zone->min : zone->max;
    switch (term.domain) {
      case AggDomain::kSigned:
        FoldSigned(term.op, ValueAs<int64_t>(bound), acc);
        break;
      case AggDomain::kUnsigned:
        FoldUnsigned(term.op, ValueAs<uint64_t>(bound), acc);
        break;
      case AggDomain::kFloat:
        FoldFloat(term.op, ValueAs<double>(bound), acc);
        break;
    }
  }
  plan->agg_zone_shortcut = true;
  plan->agg_zone_partials = std::move(partials);
}

// Maps a ScanEngine to its aggregate-pushdown kernel. SISD and Blockwise
// engines (and the scalar fused engine) run the scalar reference fold; the
// JIT engine never reaches this (ValidateEngine rejects it).
FusedAggScanFn AggFnForEngine(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kAvx2Fused128:
      return *GetFusedAggKernel(FusedKernelKind::kAvx2_128);
    case ScanEngine::kAvx512Fused128:
      return *GetFusedAggKernel(FusedKernelKind::kAvx512_128);
    case ScanEngine::kAvx512Fused256:
      return *GetFusedAggKernel(FusedKernelKind::kAvx512_256);
    case ScanEngine::kAvx512Fused512:
      return *GetFusedAggKernel(FusedKernelKind::kAvx512_512);
    default:
      return *GetFusedAggKernel(FusedKernelKind::kScalar);
  }
}

// Maps a fused ScanEngine to its static kernel. Callers have already
// checked availability.
FusedScanFn FusedFnForEngine(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kScalarFused:
      return *GetFusedScanKernel(FusedKernelKind::kScalar);
    case ScanEngine::kAvx2Fused128:
      return *GetFusedScanKernel(FusedKernelKind::kAvx2_128);
    case ScanEngine::kAvx512Fused128:
      return *GetFusedScanKernel(FusedKernelKind::kAvx512_128);
    case ScanEngine::kAvx512Fused256:
      return *GetFusedScanKernel(FusedKernelKind::kAvx512_256);
    case ScanEngine::kAvx512Fused512:
      return *GetFusedScanKernel(FusedKernelKind::kAvx512_512);
    default:
      return nullptr;
  }
}

// Shared entry checks for every execution path.
Status ValidateEngine(ScanEngine engine) {
  if (engine == ScanEngine::kJit) {
    return Status::InvalidArgument(
        "the JIT engine runs through the fts/jit chunk primitives");
  }
  if (!ScanEngineAvailable(engine)) {
    return Status::Unavailable(StrFormat(
        "scan engine %s is not available on this CPU",
        ScanEngineToString(engine)));
  }
  return Status::Ok();
}

// Classic block-at-a-time execution: the first predicate runs vectorized
// over the whole chunk and *materializes* its position list; every further
// predicate iterates that list one row at a time ("breaking out of SIMD
// code", as Menon et al. put it — see Section VI.C). This is the baseline
// strategy the Fused Table Scan's register-resident position lists avoid.
size_t BlockwiseScan(const std::vector<ScanStage>& stages, size_t row_count,
                     uint32_t* out) {
  const FusedKernelKind first_kind = BestAvailableKernel();
  const FusedScanFn first_stage_fn = *GetFusedScanKernel(first_kind);

  PosList current(row_count + kScanOutputSlack);
  size_t count = first_stage_fn(stages.data(), 1, row_count, current.data());

  for (size_t s = 1; s < stages.size(); ++s) {
    size_t kept = 0;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t pos = current[i];
      if (EvaluateStageAtRow(stages[s], pos)) current[kept++] = pos;
    }
    count = kept;
  }
  for (size_t i = 0; i < count; ++i) out[i] = current[i];
  return count;
}

// Process-lifetime accounting for one chunk execution. ExecuteChunk and
// ExecuteChunkAggregate each call this once per chunk they run.
void RecordChunkExecution(ScanEngine engine, size_t rows, size_t matches) {
  const obs::EngineMetrics& metrics = obs::Metrics();
  metrics.rows_scanned_total->Add(rows);
  metrics.rows_emitted_total->Add(matches);
  EngineExecutionCounter(engine)->Increment();
}

// Operand shape of one kernel stage as the cost profile prices it.
cost::EncClass EncClassOf(const ScanStage& stage) {
  if (stage.packed_bits != 0) return cost::EncClass::kPacked;
  switch (stage.type) {
    case ScanElementType::kI64:
    case ScanElementType::kU64:
    case ScanElementType::kF64:
      return cost::EncClass::kPlain64;
    default:
      return cost::EncClass::kPlain32;
  }
}

// Cost-model inputs of one compressed-domain stage: how many runs/blocks
// the range builder classifies, and (delta only) how many rows sit in
// blocks whose min/max cannot decide the predicate — those get
// prefix-reconstructed at execution.
TableScanner::ChunkPlan::CompressedCostInput CompressedCostOf(
    const BaseColumn& column, const CompressedScanStage& stage) {
  TableScanner::ChunkPlan::CompressedCostInput input;
  DispatchDataType(column.data_type(), [&](auto tag) {
    using T = decltype(tag);
    if (column.encoding() == ColumnEncoding::kRle) {
      input.units = static_cast<const RleColumn<T>&>(column).run_count();
      return;
    }
    if constexpr (std::is_integral_v<T>) {
      const auto& delta = static_cast<const DeltaColumn<T>&>(column);
      input.is_delta = true;
      input.units = delta.blocks().size();
      const T value = ValueAs<T>(stage.value);
      for (const auto& block : delta.blocks()) {
        if (ClassifyZone<T>(block.min, block.max, stage.op, value) ==
            ZoneFate::kMaybe) {
          input.decode_rows += block.rows;
        }
      }
    }
  });
  return input;
}

}  // namespace

StatusOr<TableScanner> TableScanner::Prepare(TablePtr table,
                                             const ScanSpec& spec) {
  return Prepare(std::move(table), spec, PrepareOptions{});
}

StatusOr<TableScanner> TableScanner::Prepare(TablePtr table,
                                             const ScanSpec& spec,
                                             const PrepareOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  if (spec.predicates.size() > kMaxScanStages) {
    return Status::InvalidArgument(
        StrFormat("scan has %zu predicates; static kernels support up to %zu",
                  spec.predicates.size(), kMaxScanStages));
  }
  // Resolve all column names once.
  std::vector<size_t> column_indexes;
  column_indexes.reserve(spec.predicates.size());
  for (const auto& predicate : spec.predicates) {
    FTS_ASSIGN_OR_RETURN(const size_t index,
                         table->ColumnIndex(predicate.column));
    column_indexes.push_back(index);
  }
  if (spec.aggregates.size() > kMaxAggTerms) {
    return Status::InvalidArgument(
        StrFormat("scan has %zu aggregates; kernels support up to %zu",
                  spec.aggregates.size(), kMaxAggTerms));
  }
  std::vector<std::optional<size_t>> agg_columns;
  agg_columns.reserve(spec.aggregates.size());
  for (const AggregateSpec& aggregate : spec.aggregates) {
    if (aggregate.op == AggOp::kCount && aggregate.column.empty()) {
      agg_columns.emplace_back(std::nullopt);
      continue;
    }
    FTS_ASSIGN_OR_RETURN(const size_t index,
                         table->ColumnIndex(aggregate.column));
    agg_columns.emplace_back(index);
  }

  // Cost-model state for this scan (DESIGN.md §14). FTS_ADAPTIVE=0 turns
  // the whole model off; engine adaptation additionally needs the spec's
  // opt-in. The calibrated profile (first use triggers calibration) is
  // only loaded when engines will actually be picked from it — re-ranking
  // alone runs off the static default table, whose cost *ratios* are what
  // the rank key consumes.
  const bool model_active = cost::AdaptiveEnabled();
  const bool adaptive_engine = spec.adaptive && model_active;
  const cost::CostProfile& profile =
      adaptive_engine ? cost::CalibratedProfile() : cost::DefaultProfile();
  // Engine whose calibrated constants order the chain. Re-ranking must not
  // depend on which engine later runs the chunk (the order would then
  // differ between adaptive on/off), so chains are ranked once against the
  // best fused kernel this CPU has — the engine the rest_ns ratios of which
  // best reflect how the fused chains actually behave.
  const ScanEngine ranking_engine = cost::BestFusedEngine();
  size_t chunks_reordered = 0;
  double est_rows = 0.0;

  std::vector<ChunkPlan> plans;
  bool needs_sink = false;
  plans.reserve(table->chunk_count());
  PruningSummary pruning;
  pruning.chunks_total = table->chunk_count();
  std::array<uint64_t, 6> stage_encodings{};
  for (ChunkId chunk_id = 0; chunk_id < table->chunk_count(); ++chunk_id) {
    const Chunk& chunk = table->chunk(chunk_id);
    ChunkPlan plan;
    plan.row_count = chunk.row_count();
    if (plan.row_count == 0) {
      // A zero-row chunk can never contribute matches: classify it as
      // always-pruned instead of building stages against sentinel-valued
      // (invalid) zone maps.
      plan.impossible = true;
      pruning.chunks_pruned++;
      plans.push_back(std::move(plan));
      continue;
    }
    const uint64_t chunk_bytes_before = pruning.bytes_skipped;
    const size_t chunk_drops_before = pruning.stages_dropped;
    for (size_t p = 0; p < spec.predicates.size(); ++p) {
      const BaseColumn& column = chunk.column(column_indexes[p]);
      stage_encodings[static_cast<size_t>(column.encoding())]++;
      const ZoneMap* zone = options.use_zone_maps
                                ? chunk.zone_map(column_indexes[p])
                                : nullptr;
      ScanStage stage;
      CompressedScanStage compressed_stage;
      bool is_compressed = false;
      bool dropped = false;
      bool impossible = false;
      double selectivity = 0.5;
      FTS_RETURN_IF_ERROR(BuildStage(column, zone, spec.predicates[p],
                                     &stage, &compressed_stage,
                                     &is_compressed, &dropped,
                                     &impossible, &selectivity));
      if (impossible) {
        plan.impossible = true;
        plan.stages.clear();
        plan.compressed.clear();
        // A skipped chunk avoids reading every predicate column, not just
        // the disproving one; replace any dropped-stage bytes already
        // accumulated for this chunk (a subset) and count each distinct
        // column once.
        pruning.chunks_pruned++;
        pruning.bytes_skipped = chunk_bytes_before;
        pruning.stages_dropped = chunk_drops_before;
        for (size_t q = 0; q < column_indexes.size(); ++q) {
          bool counted = false;
          for (size_t r = 0; r < q; ++r) {
            if (column_indexes[r] == column_indexes[q]) counted = true;
          }
          if (!counted) {
            pruning.bytes_skipped +=
                ColumnScanBytes(chunk.column(column_indexes[q]));
          }
        }
        break;
      }
      if (dropped) {
        pruning.stages_dropped++;
        pruning.bytes_skipped +=
            ColumnScanBytes(chunk.column(column_indexes[p]));
        continue;
      }
      if (is_compressed) {
        plan.compressed.push_back(compressed_stage);
        plan.compressed_sel.push_back(selectivity);
        if (model_active) {
          plan.compressed_cost.push_back(
              CompressedCostOf(column, compressed_stage));
        }
      } else {
        plan.stages.push_back(stage);
        plan.stage_sel.push_back(selectivity);
      }
    }
    if (!plan.impossible) {
      // Re-rank the fused chain cheapest-effective-first for this chunk:
      // ascending cost/(1 - selectivity) from the chunk's own zone-map
      // estimates. Result-invariant for a conjunction (every order computes
      // the same match set), so this applies regardless of spec.adaptive.
      // The stable sort makes ties (and chunks without bounds) keep the
      // spec's predicate order — uniform tables reorder nothing.
      if (model_active && plan.stages.size() > 1) {
        std::vector<size_t> order(plan.stages.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                           return cost::StageRank(profile, ranking_engine,
                                                  EncClassOf(plan.stages[a]),
                                                  plan.stage_sel[a]) <
                                  cost::StageRank(profile, ranking_engine,
                                                  EncClassOf(plan.stages[b]),
                                                  plan.stage_sel[b]);
                         });
        if (!std::is_sorted(order.begin(), order.end())) {
          std::vector<ScanStage> stages;
          std::vector<double> sels;
          stages.reserve(order.size());
          sels.reserve(order.size());
          for (size_t index : order) {
            stages.push_back(plan.stages[index]);
            sels.push_back(plan.stage_sel[index]);
          }
          plan.stages = std::move(stages);
          plan.stage_sel = std::move(sels);
          plan.reordered = true;
          chunks_reordered++;
        }
      }
      if (plan.row_count > 0) {
        double sel = 1.0;
        for (double s : plan.stage_sel) sel *= s;
        for (double s : plan.compressed_sel) sel *= s;
        plan.est_matches = static_cast<double>(plan.row_count) * sel;
        est_rows += plan.est_matches;
      }
    }
    if (!spec.aggregates.empty() && !plan.impossible) {
      for (size_t a = 0; a < spec.aggregates.size(); ++a) {
        BuildAggTerm(chunk, agg_columns[a], spec.aggregates[a].op, &plan);
      }
      if (options.use_zone_maps) {
        TryAggZoneShortcut(chunk, agg_columns, &plan);
      }
      needs_sink = needs_sink || plan.agg_positions;
    }
    plans.push_back(std::move(plan));
  }
  TableScanner scanner(std::move(table), std::move(plans), pruning,
                       spec.aggregates.size(), spec.context,
                       stage_encodings);
  scanner.profile_ = &profile;
  scanner.model_active_ = model_active;
  scanner.adaptive_engine_ = adaptive_engine;
  scanner.chunks_reordered_ = chunks_reordered;
  scanner.est_rows_ = est_rows;
  if (needs_sink) {
    FTS_ASSIGN_OR_RETURN(PositionsFoldSink sink,
                         PositionsFoldSink::Prepare(scanner.table_,
                                                    spec.aggregates));
    scanner.agg_sink_ =
        std::make_shared<const PositionsFoldSink>(std::move(sink));
  }
  return scanner;
}

// Bytes a chunk's scratch position list costs against the query's memory
// budget (fts/common/query_context.h).
static uint64_t PosListBytes(size_t row_count) {
  return static_cast<uint64_t>(row_count + kScanOutputSlack) *
         sizeof(ChunkOffset);
}

size_t TableScanner::CollectChunk(ScanEngine engine, const ChunkPlan& plan,
                                  ChunkOffset* out,
                                  CompressedScanStats* stats) const {
  if (!plan.compressed.empty()) {
    // Compressed-domain chunk: every engine runs the same run/block range
    // path (byte-identical across engines and thread counts); the chosen
    // engine only matters for the chunks the kernels scan directly.
    return ExecuteCompressedChunk(plan.compressed, plan.stages, out, stats);
  }
  if (plan.stages.empty()) {
    std::iota(out, out + plan.row_count, ChunkOffset{0});
    return plan.row_count;
  }
  switch (engine) {
    case ScanEngine::kSisdNoVec:
      return SisdScanNoVecCollect(plan.stages.data(), plan.stages.size(),
                                  plan.row_count, out);
    case ScanEngine::kSisdAutoVec:
      return SisdScanAutoVecCollect(plan.stages.data(), plan.stages.size(),
                                    plan.row_count, out);
    case ScanEngine::kBlockwise:
      return BlockwiseScan(plan.stages, plan.row_count, out);
    default:
      return FusedFnForEngine(engine)(plan.stages.data(), plan.stages.size(),
                                      plan.row_count, out);
  }
}

StatusOr<size_t> TableScanner::ExecuteChunk(ScanEngine engine,
                                            ChunkId chunk_id,
                                            ChunkOffset* out,
                                            ChunkStats* stats) const {
  FTS_RETURN_IF_ERROR(ValidateEngine(engine));
  if (chunk_id >= chunk_plans_.size()) {
    return Status::InvalidArgument(
        StrFormat("chunk %u out of range (%zu chunks)", chunk_id,
                  chunk_plans_.size()));
  }
  const ChunkPlan& plan = chunk_plans_[chunk_id];
  if (plan.impossible || plan.row_count == 0) return size_t{0};
  obs::TraceSpan span("scan_chunk", "scan");
  ChunkStats unused;
  if (stats == nullptr) stats = &unused;
  const size_t count = CollectChunk(engine, plan, out, &stats->compressed);
  RecordChunkExecution(engine, plan.row_count, count);
  if (span.active()) {
    span.AddArg("chunk", static_cast<uint64_t>(chunk_id));
    span.AddArg("engine", ScanEngineToString(engine));
    span.AddArg("rows", static_cast<uint64_t>(plan.row_count));
    span.AddArg("matches", static_cast<uint64_t>(count));
  }
  return count;
}

size_t TableScanner::RefineChunk(ChunkId chunk_id, const ChunkOffset* in,
                                 size_t n, ChunkOffset* out) const {
  const ChunkPlan& plan = chunk_plans_[chunk_id];
  if (plan.impossible) return 0;
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const ChunkOffset pos = in[i];
    bool all = true;
    for (size_t s = 0; all && s < plan.stages.size(); ++s) {
      all = EvaluateStageAtRow(plan.stages[s], pos);
    }
    // Predicates on RLE/delta columns live in plan.compressed, not
    // plan.stages — a refine step must evaluate those too or the conjunct
    // is silently dropped.
    for (size_t s = 0; all && s < plan.compressed.size(); ++s) {
      all = EvaluateCompressedStageAtRow(plan.compressed[s], pos);
    }
    if (all) out[kept++] = pos;
  }
  return kept;
}

StatusOr<size_t> TableScanner::ExecuteChunkAggregate(
    ScanEngine engine, ChunkId chunk_id, AggAccumulator* accs,
    ChunkStats* stats) const {
  FTS_RETURN_IF_ERROR(ValidateEngine(engine));
  if (num_agg_terms_ == 0) {
    return Status::InvalidArgument(
        "scan spec carries no aggregates; use ExecuteChunk");
  }
  if (chunk_id >= chunk_plans_.size()) {
    return Status::InvalidArgument(
        StrFormat("chunk %u out of range (%zu chunks)", chunk_id,
                  chunk_plans_.size()));
  }
  const ChunkPlan& plan = chunk_plans_[chunk_id];
  for (size_t i = 0; i < num_agg_terms_; ++i) accs[i] = AggAccumulator{};
  if (plan.impossible || plan.row_count == 0) return size_t{0};
  ChunkStats unused;
  if (stats == nullptr) stats = &unused;
  if (plan.agg_zone_shortcut) {
    // Answered from zone metadata: no column bytes touched.
    std::copy(plan.agg_zone_partials.begin(), plan.agg_zone_partials.end(),
              accs);
    RecordChunkExecution(engine, 0, plan.row_count);
    ++stats->agg_kernel_chunks;
    return plan.row_count;
  }
  obs::TraceSpan span("scan_chunk_agg", "scan");
  size_t count;
  if (plan.agg_positions) {
    // Collect the survivors into a worker-local list, then fold them
    // through the sink's per-encoding decoders.
    ScopedMemoryReservation reservation;
    FTS_RETURN_IF_ERROR(
        reservation.Reserve(context_, PosListBytes(plan.row_count)));
    PosList positions(plan.row_count + kScanOutputSlack);
    count = CollectChunk(engine, plan, positions.data(), &stats->compressed);
    GatherStats gather;
    agg_sink_->Fold(*GetGatherKernel(GatherKernelFor(engine)), chunk_id,
                    positions.data(), count, accs, &gather);
    ++stats->agg_positions_chunks;
    stats->agg_delta_blocks += gather.delta_blocks_decoded;
  } else if (!plan.compressed.empty()) {
    // Every term is COUNT: the range path counts the survivors without
    // materializing them.
    count = ExecuteCompressedChunk(plan.compressed, plan.stages, nullptr,
                                   &stats->compressed);
    for (size_t i = 0; i < num_agg_terms_; ++i) accs[i].count = count;
    ++stats->agg_kernel_chunks;
  } else {
    count = AggFnForEngine(engine)(
        plan.stages.data(), plan.stages.size(), plan.row_count,
        plan.agg_terms.data(), plan.agg_terms.size(), accs);
    ++stats->agg_kernel_chunks;
  }
  RecordChunkExecution(engine, plan.row_count, count);
  if (span.active()) {
    span.AddArg("chunk", static_cast<uint64_t>(chunk_id));
    span.AddArg("engine", ScanEngineToString(engine));
    span.AddArg("rows", static_cast<uint64_t>(plan.row_count));
    span.AddArg("matches", static_cast<uint64_t>(count));
  }
  return count;
}

EngineChoice TableScanner::AdaptEngine(const EngineChoice& requested,
                                       ChunkId chunk_id) const {
  if (!adaptive_engine_ || profile_ == nullptr ||
      chunk_id >= chunk_plans_.size()) {
    return requested;
  }
  const ChunkPlan& plan = chunk_plans_[chunk_id];
  if (plan.impossible || plan.row_count == 0 || !plan.compressed.empty() ||
      plan.stages.empty() || !profile_->For(requested.engine).available) {
    // Compressed chunks run the engine-independent range path; stage-free
    // chunks are a pure emit; an engine outside the calibrated adaptation
    // set has no constants to price it against the candidates.
    return requested;
  }
  const double requested_ns = EstimateChunkNanos(requested.engine, chunk_id);
  // Candidates never upgrade the ISA: the SISD engines always qualify, and
  // a kJit request may fall back to the best static fused kernel (the JIT
  // targets the same instruction set the fused kernels use).
  ScanEngine candidates[3];
  size_t num_candidates = 0;
  if (requested.engine == ScanEngine::kJit) {
    candidates[num_candidates++] = cost::BestFusedEngine();
  }
  candidates[num_candidates++] = ScanEngine::kSisdAutoVec;
  candidates[num_candidates++] = ScanEngine::kSisdNoVec;
  EngineChoice best = requested;
  double best_ns = requested_ns;
  for (size_t i = 0; i < num_candidates; ++i) {
    if (!ScanEngineAvailable(candidates[i])) continue;
    const double ns = EstimateChunkNanos(candidates[i], chunk_id);
    if (ns < best_ns) {
      best = EngineChoice{candidates[i], 0};
      best_ns = ns;
    }
  }
  // Hysteresis: stay on the requested engine unless the winner is
  // predicted at least 1.25x faster — estimates carry error, and the
  // requested engine is usually the globally sensible one.
  if (!(best == requested) && requested_ns < best_ns * 1.25) {
    return requested;
  }
  return best;
}

double TableScanner::EstimateChunkNanos(ScanEngine engine,
                                        ChunkId chunk_id) const {
  if (profile_ == nullptr || chunk_id >= chunk_plans_.size()) return 0.0;
  const ChunkPlan& plan = chunk_plans_[chunk_id];
  if (plan.impossible || plan.row_count == 0) return 0.0;
  const double rows = static_cast<double>(plan.row_count);
  const cost::EngineCostConstants& sisd =
      profile_->For(ScanEngine::kSisdAutoVec);
  if (!plan.compressed.empty()) {
    // Range path: classify every run / block once, prefix-reconstruct the
    // undecided delta blocks, then refine the surviving candidates with
    // the kernel stages row-wise (the compressed executor evaluates those
    // scalar, so SISD constants price them) and emit the matches.
    double ns = 0.0;
    double prefix = 1.0;
    for (size_t i = 0; i < plan.compressed.size(); ++i) {
      if (i < plan.compressed_cost.size()) {
        const ChunkPlan::CompressedCostInput& input = plan.compressed_cost[i];
        ns += static_cast<double>(input.units) *
              (input.is_delta ? profile_->delta_block_ns
                              : profile_->rle_run_ns);
        ns += static_cast<double>(input.decode_rows) * profile_->delta_row_ns;
      }
      prefix *= i < plan.compressed_sel.size() ? plan.compressed_sel[i] : 0.5;
    }
    for (size_t s = 0; s < plan.stages.size(); ++s) {
      ns += rows * prefix *
            sisd.rest_ns[static_cast<size_t>(EncClassOf(plan.stages[s]))];
      prefix *= s < plan.stage_sel.size() ? plan.stage_sel[s] : 0.5;
    }
    // Matches leave as `out[count++] = row` range expansion, not as a
    // kernel's match store — priced by its own calibrated constant.
    ns += rows * prefix * profile_->compressed_emit_ns;
    return ns;
  }
  if (plan.stages.empty()) {
    // Every row matches: the chunk is a pure position emit (iota).
    return rows * profile_->compressed_emit_ns;
  }
  std::vector<cost::StageCost> stages;
  stages.reserve(plan.stages.size());
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    stages.push_back(
        {EncClassOf(plan.stages[s]),
         s < plan.stage_sel.size() ? plan.stage_sel[s] : 0.5});
  }
  return cost::ChainCostNs(*profile_, engine, stages, rows);
}

double TableScanner::EstimateScanNanos(ScanEngine engine) const {
  double total = 0.0;
  for (ChunkId chunk_id = 0; chunk_id < chunk_plans_.size(); ++chunk_id) {
    total += EstimateChunkNanos(engine, chunk_id);
  }
  return total;
}

}  // namespace fts
