#include "fts/cost/cost_profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "fts/common/aligned_buffer.h"
#include "fts/common/cpu_info.h"
#include "fts/common/env.h"
#include "fts/common/macros.h"
#include "fts/common/string_util.h"
#include "fts/obs/trace.h"
#include "fts/cost/calibrate_sisd.h"
#include "fts/simd/dispatch.h"
#include "fts/simd/scan_stage.h"
#include "fts/storage/bitpacked_column.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/delta_column.h"

namespace fts {
namespace cost {
namespace {

// Serialization names per ScanEngine index. Local table (not
// ScanEngineToString) so fts_cost needs no fts_scan symbols.
constexpr const char* kEngineNames[kNumEngines] = {
    "sisd-novec", "sisd-autovec", "scalar-fused",
    "avx2-128",   "avx512-128",   "avx512-256",
    "avx512-512", "blockwise",    "jit",
};

constexpr const char* kEncNames[kNumEncClasses] = {"p32", "p64", "packed"};

// Units the compute-bound constants are timed over: the SISD pair (5-14
// ns/row, under 1 GB/s), the RLE run classifier and the delta row decoder
// price instructions, not bandwidth, so 2^16 rows (256 KiB of plain32,
// L2-resident) time the same work as the full fixture at a twentieth of
// the cost.
constexpr size_t kComputeBoundUnits = size_t{1} << 16;

// Minimum block visits per timed delta_block_ns run: a visit is ~1 ns, so
// fewer would let the clock reads dominate. 2^11 is what a 2^21-row
// column visits once.
constexpr size_t kDeltaBlockVisits = size_t{1} << 11;

// The adaptation set: the engines AdaptEngine prices against each other
// (the SISD pair every chunk may fall back to, and the best fused engine
// the default request and the chain ranking use). Calibrate() measures
// exactly these; other fused engines stay unmeasured, and AdaptEngine
// leaves a request for them unchanged.
std::array<ScanEngine, 3> AdaptationSet() {
  return {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
          BestFusedEngine()};
}

double NowNanos() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Minimum ns/unit over `reps` timed runs of `fn` (one untimed warmup).
// The minimum filters scheduler noise, which only ever adds time.
template <typename Fn>
double MeasureNsPerUnit(size_t units, int reps, const Fn& fn) {
  volatile size_t sink = fn();
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowNanos();
    sink = sink + fn();
    const double t1 = NowNanos();
    best = std::min(best, (t1 - t0) / static_cast<double>(units));
  }
  (void)sink;
  return best;
}

uint32_t Lcg(uint32_t& state) {
  state = state * 1664525u + 1013904223u;
  // Finalize with an avalanche mix: the raw low LCG bits are periodic, and
  // `raw % pow2` data would let the branch predictor learn the comparison
  // outcomes — measuring branchy loops far below their cost on real data.
  uint32_t z = state;
  z ^= z >> 16;
  z *= 0x7feb352du;
  z ^= z >> 15;
  z *= 0x846ca68bu;
  z ^= z >> 16;
  return z;
}

// One synthetic single-column workload per encoding class: the data
// buffer, plus a stage constructor for a target selectivity under kLt.
struct ClassFixture {
  AlignedVector<uint32_t> plain32;
  AlignedVector<uint64_t> plain64;
  std::shared_ptr<BitPackedColumn<int32_t>> packed;
  size_t rows = 0;

  // `selectivity` in [0, 1]; values are uniform in [0, kDomain).
  static constexpr uint32_t kDomain = 1000;

  ScanStage StageFor(EncClass enc, double selectivity) const {
    ScanStage stage;
    stage.op = CompareOp::kLt;
    switch (enc) {
      case EncClass::kPlain32:
        stage.data = plain32.data();
        stage.type = ScanElementType::kU32;
        stage.value.u32 = static_cast<uint32_t>(selectivity * kDomain);
        break;
      case EncClass::kPlain64:
        stage.data = plain64.data();
        stage.type = ScanElementType::kU64;
        stage.value.u64 = static_cast<uint64_t>(selectivity * kDomain);
        break;
      case EncClass::kPacked: {
        stage.data = packed->scan_data();
        stage.type = ScanElementType::kU32;
        stage.packed_bits = static_cast<uint8_t>(packed->packed_bit_width());
        const auto codes = static_cast<uint32_t>(packed->dictionary().size());
        stage.value.u32 = static_cast<uint32_t>(selectivity * codes);
        stage.encoding = static_cast<uint8_t>(ColumnEncoding::kBitPacked);
        break;
      }
    }
    return stage;
  }

  static ClassFixture Build(size_t rows) {
    ClassFixture f;
    f.rows = rows;
    f.plain32.resize(rows);
    f.plain64.resize(rows);
    AlignedVector<int32_t> codes(rows);
    internal::FillCalibrationColumns(rows, f.plain32.data(), codes.data());
    for (size_t i = 0; i < rows; ++i) f.plain64[i] = f.plain32[i];
    f.packed = std::make_shared<BitPackedColumn<int32_t>>(
        internal::PackCalibrationCodes(codes));
    return f;
  }
};

// A scan runner measured during calibration: collect (materializing)
// entry point shared by the fused kernels and the SISD twins, plus the
// count-only twin the SISD engines additionally expose.
using CollectFn = size_t (*)(const ScanStage*, size_t, size_t, uint32_t*);
using CountFn = size_t (*)(const ScanStage*, size_t, size_t);

CountFn CountFnFor(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kSisdNoVec:
      return &SisdScanCostNoVecCount;
    case ScanEngine::kSisdAutoVec:
      return &SisdScanCostAutoVecCount;
    default:
      return nullptr;  // Fused kernels materialize unconditionally.
  }
}

// Collect entry point of one calibrated engine: a SISD twin, or the best
// fused kernel (the only fused engine calibration measures).
CollectFn CollectFnFor(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kSisdNoVec:
      return &SisdScanCostNoVecCollect;
    case ScanEngine::kSisdAutoVec:
      return &SisdScanCostAutoVecCollect;
    default:
      FTS_CHECK(engine == BestFusedEngine());
      return *GetFusedScanKernel(BestAvailableKernel());
  }
}

// Solves the three-point system described in cost_profile.h for one
// (engine, class) over the first `rows` rows of the fixture: t(sel) =
// first + sel * emit for a single stage, and a two-stage chain with a
// pass-all first stage adds one full-width rest term. `emit` is shared
// across classes (output side), so it is passed in for every class after
// kPlain32.
struct ClassConstants {
  double first_ns = 0.0;
  double rest_ns = 0.0;
  double emit_ns = 0.0;
};

ClassConstants MeasureClass(CollectFn fn, CountFn count_fn,
                            const ClassFixture& fixture, size_t rows,
                            EncClass enc, int reps, double shared_emit) {
  FTS_CHECK(rows <= fixture.rows);
  const ScanStage half = fixture.StageFor(enc, 0.5);
  const ScanStage full = fixture.StageFor(enc, 1.0);

  // One warm output buffer across runs: the constants price the kernel
  // itself. (Execute also provisions a fresh PosList per chunk; that cost
  // is allocator- and size-dependent, so it is deliberately left out of
  // the per-row constants rather than folded in as noise.)
  AlignedVector<uint32_t> out(rows + kScanOutputSlack);
  const auto collect = [&](const ScanStage* stages, size_t n) {
    return fn(stages, n, rows, out.data());
  };
  const double t_half =
      MeasureNsPerUnit(rows, reps, [&] { return collect(&half, 1); });
  const double t_full =
      MeasureNsPerUnit(rows, reps, [&] { return collect(&full, 1); });
  const ScanStage two[2] = {full, half};
  const double t_two =
      MeasureNsPerUnit(rows, reps, [&] { return collect(two, 2); });

  ClassConstants c;
  if (shared_emit >= 0.0) {
    c.emit_ns = shared_emit;
  } else if (count_fn != nullptr) {
    // Branchy SISD loops run *slower* at sel=0.5 than sel=1.0 (the
    // mispredicts swamp the store), so the half-vs-full slope clamps to
    // zero. The count twin is the same loop minus the output store:
    // collect-minus-count at full selectivity isolates the emit cost on
    // two branch-free runs.
    const double t_count = MeasureNsPerUnit(rows, reps, [&] {
      return count_fn(&full, 1, rows);
    });
    c.emit_ns = std::max(0.02, t_full - t_count);
  } else {
    // The fused compress-store is branch-free, so t(sel) is linear; the
    // whole 0..1 span carries twice the signal of the half slope. Floored
    // like the SISD branch: a zero emit would price every gathered cell
    // at nothing.
    const ScanStage none = fixture.StageFor(enc, 0.0);
    const double t_none =
        MeasureNsPerUnit(rows, reps, [&] { return collect(&none, 1); });
    c.emit_ns = std::max(0.02, t_full - t_none);
  }
  c.first_ns = std::max(0.05, t_half - 0.5 * c.emit_ns);
  c.rest_ns = std::max(0.02, t_two - c.first_ns - 0.5 * c.emit_ns);
  return c;
}

// After per-engine measurement, derive the JIT row model from the best
// fused engine (the generated code uses the same instruction pattern minus
// the interpretation overhead).
void FinalizeDerived(CostProfile* profile) {
  const EngineCostConstants& best = profile->For(BestFusedEngine());
  if (!best.available) return;
  EngineCostConstants& jit =
      profile->engines[static_cast<size_t>(ScanEngine::kJit)];
  jit.available = true;
  for (size_t e = 0; e < kNumEncClasses; ++e) {
    jit.first_ns[e] = best.first_ns[e] * profile->jit_speed_factor;
    jit.rest_ns[e] = best.rest_ns[e] * profile->jit_speed_factor;
  }
  jit.emit_ns = best.emit_ns * profile->jit_speed_factor;
}

// `rows` sizes the store-bound position emission; the compute-bound RLE
// and delta constants run over at most kComputeBoundUnits units.
void MeasureCompressedConstants(CostProfile* profile, size_t rows,
                                int reps) {
  // RLE: classify one run and account its length — the per-run work of
  // BuildCompressedStageRanges' RLE path.
  const size_t runs =
      std::max<size_t>(std::min(rows / 4, kComputeBoundUnits), 1024);
  std::vector<uint32_t> run_values(runs);
  std::vector<uint32_t> run_ends(runs);
  uint32_t state = 0xabcd1234u;
  uint32_t end = 0;
  for (size_t r = 0; r < runs; ++r) {
    run_values[r] = Lcg(state) % ClassFixture::kDomain;
    end += 1 + (Lcg(state) % 7);
    run_ends[r] = end;
  }
  profile->rle_run_ns = MeasureNsPerUnit(runs, reps, [&] {
    uint64_t total = 0;
    uint32_t prev = 0;
    for (size_t r = 0; r < runs; ++r) {
      if (EvaluateCompare(CompareOp::kLt, run_values[r],
                          ClassFixture::kDomain / 2)) {
        total += run_ends[r] - prev;
      }
      prev = run_ends[r];
    }
    return static_cast<size_t>(total);
  });

  // Position emission from candidate ranges: the `out[count++] = row`
  // expansion loop every compressed chunk shares (compressed_scan.cc),
  // and what a zone-decided always-true chunk pays per row. Segmented
  // spans with random gaps, not one full iota: real candidate lists stop
  // and restart, which costs loop prologues and boundary mispredicts.
  {
    std::vector<std::pair<uint32_t, uint32_t>> spans;
    size_t emitted = 0;
    constexpr uint32_t kSpan = 512;
    for (uint32_t pos = 0; pos + kSpan <= rows; pos += kSpan) {
      if (Lcg(state) & 1u) {
        spans.emplace_back(pos, pos + kSpan);
        emitted += kSpan;
      }
    }
    if (emitted > 0) {
      AlignedVector<uint32_t> out(rows + kScanOutputSlack);
      profile->compressed_emit_ns = MeasureNsPerUnit(emitted, reps, [&] {
        size_t count = 0;
        for (const auto& span : spans) {
          for (uint32_t row = span.first; row < span.second; ++row) {
            out[count++] = row;
          }
        }
        return count;
      });
    }
  }

  // Delta: block classification from stored min/max, and per-row prefix
  // reconstruction + compare for maybe-blocks.
  const size_t delta_rows = std::min(rows, kComputeBoundUnits);
  AlignedVector<int64_t> values(delta_rows);
  int64_t acc = 0;
  for (size_t i = 0; i < delta_rows; ++i) {
    acc += static_cast<int64_t>(Lcg(state) % 5);
    values[i] = acc;
  }
  auto column = DeltaColumn<int64_t>::TryFromValues(values);
  if (column.has_value()) {
    const auto& blocks = column->blocks();
    const int64_t needle = values[delta_rows / 2];
    // A short column has few blocks: tile its metadata until one timed
    // pass makes kDeltaBlockVisits visits.
    std::vector<DeltaColumn<int64_t>::BlockMeta> visits;
    while (visits.size() < kDeltaBlockVisits) {
      visits.insert(visits.end(), blocks.begin(), blocks.end());
    }
    profile->delta_block_ns =
        MeasureNsPerUnit(visits.size(), reps, [&] {
          size_t maybe = 0;
          for (const auto& meta : visits) {
            maybe += (meta.min < needle && needle <= meta.max) ? 1 : 0;
          }
          return maybe;
        });
    std::vector<int64_t> buf(kDeltaBlockRows);
    profile->delta_row_ns = MeasureNsPerUnit(delta_rows, reps, [&] {
      size_t matches = 0;
      for (size_t b = 0; b < blocks.size(); ++b) {
        const size_t n = column->DecodeBlock(b, buf.data());
        for (size_t i = 0; i < n; ++i) matches += buf[i] < needle ? 1 : 0;
      }
      return matches;
    });
  }
}

}  // namespace

namespace internal {

void FillCalibrationColumns(size_t rows, uint32_t* values, int32_t* codes) {
  uint32_t state = 0x5eed5eedu;
  for (size_t i = 0; i < rows; ++i) {
    values[i] = Lcg(state) % ClassFixture::kDomain;
    codes[i] = static_cast<int32_t>(Lcg(state) % kCalibrationCodes);
  }
}

BitPackedColumn<int32_t> PackCalibrationCodes(
    const AlignedVector<int32_t>& codes) {
  std::vector<int32_t> dictionary(kCalibrationCodes);
  for (uint32_t code = 0; code < kCalibrationCodes; ++code) {
    dictionary[code] = static_cast<int32_t>(code);
  }
  const int bits = BitPackedColumn<int32_t>::BitWidthFor(kCalibrationCodes);
  AlignedVector<uint8_t> packed(
      BitPackedColumn<int32_t>::PackedBytes(codes.size(), bits) +
          kBitPackedSlackBytes,
      0);
  for (size_t row = 0; row < codes.size(); ++row) {
    BitPackedColumn<int32_t>::WriteCode(packed.data(), row, bits,
                                        static_cast<uint64_t>(codes[row]));
  }
  return BitPackedColumn<int32_t>(std::move(dictionary), std::move(packed),
                                  codes.size(), bits);
}

}  // namespace internal

ScanEngine BestFusedEngine() {
  switch (BestAvailableKernel()) {
    case FusedKernelKind::kAvx512_512:
      return ScanEngine::kAvx512Fused512;
    case FusedKernelKind::kAvx512_256:
      return ScanEngine::kAvx512Fused256;
    case FusedKernelKind::kAvx512_128:
      return ScanEngine::kAvx512Fused128;
    case FusedKernelKind::kAvx2_128:
      return ScanEngine::kAvx2Fused128;
    case FusedKernelKind::kScalar:
      break;
  }
  return ScanEngine::kScalarFused;
}

const char* EncClassName(EncClass enc) {
  return kEncNames[static_cast<size_t>(enc)];
}

std::string CostProfile::Serialize() const {
  std::ostringstream out;
  out << "fts-cost-profile v" << version << "\n";
  out << "cpu " << cpu << "\n";
  out << "calibrated " << (calibrated ? 1 : 0) << "\n";
  for (size_t i = 0; i < kNumEngines; ++i) {
    const EngineCostConstants& e = engines[i];
    if (!e.available) continue;
    out << "engine " << kEngineNames[i];
    out << " first";
    for (double v : e.first_ns) out << ' ' << v;
    out << " rest";
    for (double v : e.rest_ns) out << ' ' << v;
    out << " emit " << e.emit_ns << "\n";
  }
  out << "rle_run_ns " << rle_run_ns << "\n";
  out << "delta_block_ns " << delta_block_ns << "\n";
  out << "delta_row_ns " << delta_row_ns << "\n";
  out << "compressed_emit_ns " << compressed_emit_ns << "\n";
  out << "jit_speed_factor " << jit_speed_factor << "\n";
  return out.str();
}

StatusOr<CostProfile> CostProfile::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument("empty cost profile");
  }
  CostProfile profile;
  if (std::sscanf(header.c_str(), "fts-cost-profile v%d",
                  &profile.version) != 1) {
    return Status::InvalidArgument("cost profile missing header line");
  }
  if (profile.version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("cost profile version %d != expected %d", profile.version,
                  kVersion));
  }
  // The engine-independent constants; bit i of `scalars_seen` records
  // that scalars[i] was read.
  const std::pair<const char*, double*> scalars[] = {
      {"rle_run_ns", &profile.rle_run_ns},
      {"delta_block_ns", &profile.delta_block_ns},
      {"delta_row_ns", &profile.delta_row_ns},
      {"compressed_emit_ns", &profile.compressed_emit_ns},
      {"jit_speed_factor", &profile.jit_speed_factor},
  };
  uint32_t scalars_seen = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "cpu") {
      std::string rest;
      std::getline(fields, rest);
      profile.cpu = rest.empty() ? rest : rest.substr(1);
    } else if (key == "calibrated") {
      int flag = 0;
      fields >> flag;
      profile.calibrated = flag != 0;
    } else if (key == "engine") {
      std::string name;
      fields >> name;
      size_t index = kNumEngines;
      for (size_t i = 0; i < kNumEngines; ++i) {
        if (name == kEngineNames[i]) index = i;
      }
      if (index == kNumEngines) {
        return Status::InvalidArgument(
            StrFormat("cost profile names unknown engine '%s'",
                      name.c_str()));
      }
      EngineCostConstants& e = profile.engines[index];
      e.available = true;
      std::string tag;
      fields >> tag;  // "first"
      for (double& v : e.first_ns) fields >> v;
      fields >> tag;  // "rest"
      for (double& v : e.rest_ns) fields >> v;
      fields >> tag;  // "emit"
      fields >> e.emit_ns;
      if (!fields) {
        return Status::InvalidArgument(StrFormat(
            "cost profile engine line for '%s' is malformed", name.c_str()));
      }
    } else {
      size_t i = 0;
      while (i < std::size(scalars) && key != scalars[i].first) ++i;
      if (i == std::size(scalars)) {
        return Status::InvalidArgument(
            StrFormat("cost profile has unknown key '%s'", key.c_str()));
      }
      fields >> *scalars[i].second;
      scalars_seen |= 1u << i;
    }
  }
  // A calibrated profile holds every engine Calibrate() measures or
  // derives and every constant. One that lacks any (a file cut short
  // mid-write) must recalibrate, not load with adaptation silently
  // degraded.
  const auto available = [&](ScanEngine engine) {
    return profile.For(engine).available;
  };
  const auto measured = AdaptationSet();
  if (profile.calibrated &&
      (scalars_seen != (1u << std::size(scalars)) - 1 ||
       !available(ScanEngine::kJit) ||
       !std::all_of(measured.begin(), measured.end(), available))) {
    return Status::InvalidArgument("calibrated cost profile is incomplete");
  }
  return profile;
}

CostProfile CostProfile::Defaults() {
  CostProfile profile;
  profile.cpu = GetCpuFeatures().ToString();
  profile.calibrated = false;
  auto set = [&](ScanEngine engine, std::array<double, 3> first,
                 std::array<double, 3> rest, double emit) {
    EngineCostConstants& e = profile.engines[static_cast<size_t>(engine)];
    e.available = true;
    e.first_ns = first;
    e.rest_ns = rest;
    e.emit_ns = emit;
  };
  // Ballpark Skylake-SP numbers (paper Fig. 5 shapes): good enough to
  // rank chains, not to predict wall time.
  set(ScanEngine::kSisdNoVec, {1.6, 1.8, 6.0}, {1.2, 1.4, 5.0}, 0.5);
  set(ScanEngine::kSisdAutoVec, {0.9, 1.1, 6.0}, {0.9, 1.1, 5.0}, 0.5);
  set(ScanEngine::kScalarFused, {1.5, 1.7, 5.5}, {1.7, 1.9, 5.5}, 1.0);
  const CpuFeatures& cpu = GetCpuFeatures();
  if (cpu.avx2) {
    set(ScanEngine::kAvx2Fused128, {0.5, 1.0, 1.5}, {0.9, 1.3, 1.7}, 0.4);
  }
  if (cpu.HasFusedScanAvx512()) {
    set(ScanEngine::kAvx512Fused128, {0.45, 0.9, 1.3}, {0.8, 1.1, 1.5},
        0.35);
    set(ScanEngine::kAvx512Fused256, {0.32, 0.65, 1.0}, {0.65, 0.95, 1.25},
        0.3);
    set(ScanEngine::kAvx512Fused512, {0.22, 0.5, 0.85}, {0.55, 0.85, 1.1},
        0.25);
  }
  FinalizeDerived(&profile);
  return profile;
}

CostProfile CostProfile::Calibrate() {
  // Each constant is timed in the regime it prices. The best fused engine
  // streams 8 MiB per plain32 column, past L2 on every target CPU, so its
  // constants reflect the memory-bound regime real scans run in; the
  // compute-bound SISD pair reads an L2-resident prefix of the same
  // fixture (kComputeBoundUnits). Fast mode trades fidelity for a ~20 ms
  // startup (tests).
  const bool fast = GetEnvBool("FTS_CALIBRATE_FAST", false);
  const size_t rows = fast ? (size_t{1} << 14) : (size_t{1} << 21);
  const int reps = fast ? 2 : 3;

  CostProfile profile;
  profile.cpu = GetCpuFeatures().ToString();
  profile.calibrated = true;

  const ClassFixture fixture = ClassFixture::Build(rows);
  for (ScanEngine engine : AdaptationSet()) {
    CollectFn fn = CollectFnFor(engine);
    const size_t engine_rows = engine == BestFusedEngine()
                                   ? rows
                                   : std::min(rows, kComputeBoundUnits);
    EngineCostConstants& e = profile.engines[static_cast<size_t>(engine)];
    e.available = true;
    double shared_emit = -1.0;
    for (size_t c = 0; c < kNumEncClasses; ++c) {
      const ClassConstants constants =
          MeasureClass(fn, CountFnFor(engine), fixture, engine_rows,
                       static_cast<EncClass>(c), reps, shared_emit);
      e.first_ns[c] = constants.first_ns;
      e.rest_ns[c] = constants.rest_ns;
      if (c == 0) {
        e.emit_ns = constants.emit_ns;
        shared_emit = constants.emit_ns;
      }
    }
  }
  MeasureCompressedConstants(&profile, rows, reps);
  FinalizeDerived(&profile);
  return profile;
}

const CostProfile& DefaultProfile() {
  static const CostProfile profile = CostProfile::Defaults();
  return profile;
}

const CostProfile& CalibratedProfile() {
  static const CostProfile profile = [] {
    const std::string path = GetEnvString("FTS_COST_PROFILE", "");
    if (!path.empty()) {
      std::ifstream in(path);
      if (in) {
        std::ostringstream text;
        text << in.rdbuf();
        auto parsed = CostProfile::Parse(text.str());
        if (parsed.ok() && parsed->calibrated &&
            parsed->cpu == GetCpuFeatures().ToString()) {
          return *std::move(parsed);
        }
      }
    }
    // Calibrate on a dedicated, labelled thread so the calibration
    // microbenchmark shows up as its own named Perfetto track instead of
    // an anonymous stall on whichever query thread asked first. The join
    // keeps the blocking semantics callers rely on.
    CostProfile measured;
    std::thread calibrator([&measured] {
      obs::SetCurrentThreadLabel("cost calibrator");
      obs::TraceSpan span("cost_calibrate", "cost");
      measured = CostProfile::Calibrate();
    });
    calibrator.join();
    if (!path.empty()) {
      // Best effort. Write a sibling file and rename(2) it over the
      // target, so a concurrent reader sees the old profile or the new
      // one, never a prefix.
      const std::string tmp = StrFormat("%s.tmp.%d", path.c_str(),
                                        static_cast<int>(getpid()));
      std::ofstream out(tmp, std::ios::trunc);
      out << measured.Serialize();
      out.close();
      if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
      }
    }
    return measured;
  }();
  return profile;
}

bool AdaptiveEnabled() {
  // Re-read every call (it is consulted once per Prepare): the
  // determinism fuzzers toggle FTS_ADAPTIVE within one process.
  return GetEnvBool("FTS_ADAPTIVE", true);
}

}  // namespace cost
}  // namespace fts
