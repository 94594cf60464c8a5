#include "fts/simd/agg_spec.h"
#include "fts/simd/fused_chain_avx512.h"
#include "fts/simd/kernels_avx512.h"

// Aggregate-pushdown kernels: the fused chain from fused_chain_avx512.h
// feeding an AggSink that gathers the aggregate columns under the final
// predicate mask and folds them into vector accumulators — COUNT via
// popcount, SUM via widening masked adds into 64-bit lanes, MIN/MAX via
// masked vmin/vmax — with one horizontal reduction per chunk at the end.
// No position list is ever materialized.
//
// Compiled with -mavx512f -mavx512bw -mavx512dq -mavx512vl (see
// CMakeLists.txt). The sink always folds at 512 bits: narrower chain
// widths zero-extend their (mask, positions) pairs, so the fold logic is
// written once. Dictionary and bit-packed terms compress the surviving
// positions to a 16-slot stack buffer and fold scalar — the predicate
// chain stays fully SIMD either way.

namespace fts {
namespace {

using avx512_detail::EmitAllRows;
using avx512_detail::FusedChain;
using avx512_detail::WidthTraits;

// How one term is folded per emitted survivor set. 32-bit integer sums
// widen into 64-bit lanes *before* adding (no 32-bit lane can ever
// overflow); unsigned and signed differ only in the widening instruction.
// i64/u64 sums share a kind: both are wrapping 64-bit adds.
enum class FoldKind : uint8_t {
  kCountOnly = 0,
  kSumI32,
  kSumU32,
  kSumF32,
  kSumI64,
  kSumF64,
  kMinI32,
  kMaxI32,
  kMinU32,
  kMaxU32,
  kMinF32,
  kMaxF32,
  kMinI64,
  kMaxI64,
  kMinU64,
  kMaxU64,
  kMinF64,
  kMaxF64,
  kScalarFold,  // Dictionary / bit-packed: compress + scalar fold.
};

FoldKind ClassifyTerm(const AggTerm& term) {
  if (term.op == AggOp::kCount || term.data == nullptr) {
    return FoldKind::kCountOnly;
  }
  if (term.dict != nullptr || term.packed_bits != 0) {
    return FoldKind::kScalarFold;
  }
  switch (term.op) {
    case AggOp::kSum:
      switch (term.type) {
        case ScanElementType::kI32:
          return FoldKind::kSumI32;
        case ScanElementType::kU32:
          return FoldKind::kSumU32;
        case ScanElementType::kF32:
          return FoldKind::kSumF32;
        case ScanElementType::kI64:
        case ScanElementType::kU64:
          return FoldKind::kSumI64;
        case ScanElementType::kF64:
          return FoldKind::kSumF64;
      }
      break;
    case AggOp::kMin:
    case AggOp::kMax: {
      const bool is_min = term.op == AggOp::kMin;
      switch (term.type) {
        case ScanElementType::kI32:
          return is_min ? FoldKind::kMinI32 : FoldKind::kMaxI32;
        case ScanElementType::kU32:
          return is_min ? FoldKind::kMinU32 : FoldKind::kMaxU32;
        case ScanElementType::kF32:
          return is_min ? FoldKind::kMinF32 : FoldKind::kMaxF32;
        case ScanElementType::kI64:
          return is_min ? FoldKind::kMinI64 : FoldKind::kMaxI64;
        case ScanElementType::kU64:
          return is_min ? FoldKind::kMinU64 : FoldKind::kMaxU64;
        case ScanElementType::kF64:
          return is_min ? FoldKind::kMinF64 : FoldKind::kMaxF64;
      }
      break;
    }
    case AggOp::kCount:
      break;
  }
  return FoldKind::kScalarFold;
}

// Vector accumulators for one term. Only the register the kind uses is
// ever read; the others stay at their init value.
struct TermState {
  FoldKind kind = FoldKind::kCountOnly;
  __m512i vi;
  __m512d vd;
  __m512 vf;
};

template <int kBits>
class AggSink {
  using Traits = WidthTraits<kBits>;
  using VecI = typename Traits::VecI;

 public:
  AggSink(const AggTerm* terms, size_t num_terms, AggAccumulator* accs)
      : terms_(terms), num_terms_(num_terms), accs_(accs) {
    FTS_CHECK(num_terms <= kMaxAggTerms);
    for (size_t t = 0; t < num_terms; ++t) {
      TermState& st = state_[t];
      st.kind = ClassifyTerm(terms[t]);
      st.vi = _mm512_setzero_si512();
      st.vd = _mm512_setzero_pd();
      st.vf = _mm512_setzero_ps();
      switch (st.kind) {
        case FoldKind::kMinI32:
          st.vi = _mm512_set1_epi32(INT32_MAX);
          break;
        case FoldKind::kMaxI32:
          st.vi = _mm512_set1_epi32(INT32_MIN);
          break;
        case FoldKind::kMinU32:
        case FoldKind::kMinU64:
          st.vi = _mm512_set1_epi32(-1);  // All-ones: unsigned max.
          break;
        case FoldKind::kMinI64:
          st.vi = _mm512_set1_epi64(INT64_MAX);
          break;
        case FoldKind::kMaxI64:
          st.vi = _mm512_set1_epi64(INT64_MIN);
          break;
        case FoldKind::kMinF32:
          st.vf = _mm512_set1_ps(__builtin_inff());
          break;
        case FoldKind::kMaxF32:
          st.vf = _mm512_set1_ps(-__builtin_inff());
          break;
        case FoldKind::kMinF64:
          st.vd = _mm512_set1_pd(__builtin_inf());
          break;
        case FoldKind::kMaxF64:
          st.vd = _mm512_set1_pd(-__builtin_inf());
          break;
        default:
          break;  // Sums / count / unsigned max start at zero.
      }
    }
  }

  // Folds the survivors selected by `m` among `positions` into every
  // term's vector accumulators. Widened to 512 bits so one fold body
  // serves all three chain widths.
  void Emit(uint32_t m, VecI positions) {
    matches_ += static_cast<size_t>(__builtin_popcount(m));
    const __mmask16 k = static_cast<__mmask16>(m);
    const __m512i pos = Traits::ZeroExtendTo512(positions);
    const __mmask8 klo = static_cast<__mmask8>(m & 0xFF);
    const __mmask8 khi = static_cast<__mmask8>(m >> 8);
    const __m256i idx_lo = _mm512_castsi512_si256(pos);
    const __m256i idx_hi = _mm512_extracti64x4_epi64(pos, 1);
    const __m512i zero = _mm512_setzero_si512();

    for (size_t t = 0; t < num_terms_; ++t) {
      TermState& st = state_[t];
      const void* base = terms_[t].data;
      switch (st.kind) {
        case FoldKind::kCountOnly:
          break;
        case FoldKind::kSumI32: {
          const __m512i g =
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4);
          st.vi = _mm512_add_epi64(
              st.vi, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(g)));
          st.vi = _mm512_add_epi64(
              st.vi,
              _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(g, 1)));
          break;
        }
        case FoldKind::kSumU32: {
          const __m512i g =
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4);
          st.vi = _mm512_add_epi64(
              st.vi, _mm512_cvtepu32_epi64(_mm512_castsi512_si256(g)));
          st.vi = _mm512_add_epi64(
              st.vi,
              _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(g, 1)));
          break;
        }
        case FoldKind::kSumF32: {
          // maskz gather zeroes inactive lanes; adding 0.0 is a no-op, so
          // no extra masking is needed on the accumulate.
          const __m512 g = _mm512_castsi512_ps(
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4));
          st.vd = _mm512_add_pd(
              st.vd, _mm512_cvtps_pd(_mm512_castps512_ps256(g)));
          st.vd = _mm512_add_pd(
              st.vd, _mm512_cvtps_pd(_mm512_extractf32x8_ps(g, 1)));
          break;
        }
        case FoldKind::kSumI64: {
          const __m512i glo =
              _mm512_mask_i32gather_epi64(zero, klo, idx_lo, base, 8);
          const __m512i ghi =
              _mm512_mask_i32gather_epi64(zero, khi, idx_hi, base, 8);
          st.vi = _mm512_add_epi64(st.vi, _mm512_add_epi64(glo, ghi));
          break;
        }
        case FoldKind::kSumF64: {
          const __m512d glo = _mm512_mask_i32gather_pd(
              _mm512_setzero_pd(), klo, idx_lo, base, 8);
          const __m512d ghi = _mm512_mask_i32gather_pd(
              _mm512_setzero_pd(), khi, idx_hi, base, 8);
          st.vd = _mm512_add_pd(st.vd, _mm512_add_pd(glo, ghi));
          break;
        }
        case FoldKind::kMinI32: {
          const __m512i g =
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4);
          st.vi = _mm512_mask_min_epi32(st.vi, k, st.vi, g);
          break;
        }
        case FoldKind::kMaxI32: {
          const __m512i g =
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4);
          st.vi = _mm512_mask_max_epi32(st.vi, k, st.vi, g);
          break;
        }
        case FoldKind::kMinU32: {
          const __m512i g =
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4);
          st.vi = _mm512_mask_min_epu32(st.vi, k, st.vi, g);
          break;
        }
        case FoldKind::kMaxU32: {
          const __m512i g =
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4);
          st.vi = _mm512_mask_max_epu32(st.vi, k, st.vi, g);
          break;
        }
        case FoldKind::kMinF32: {
          // Gathered value first: VMINPS/VMAXPS return the second operand
          // when either is NaN, so a NaN survivor never replaces the
          // accumulator (FoldFloat semantics). Same for the F64 cases.
          const __m512 g = _mm512_castsi512_ps(
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4));
          st.vf = _mm512_mask_min_ps(st.vf, k, g, st.vf);
          break;
        }
        case FoldKind::kMaxF32: {
          const __m512 g = _mm512_castsi512_ps(
              _mm512_mask_i32gather_epi32(zero, k, pos, base, 4));
          st.vf = _mm512_mask_max_ps(st.vf, k, g, st.vf);
          break;
        }
        case FoldKind::kMinI64: {
          const __m512i glo =
              _mm512_mask_i32gather_epi64(zero, klo, idx_lo, base, 8);
          const __m512i ghi =
              _mm512_mask_i32gather_epi64(zero, khi, idx_hi, base, 8);
          st.vi = _mm512_mask_min_epi64(st.vi, klo, st.vi, glo);
          st.vi = _mm512_mask_min_epi64(st.vi, khi, st.vi, ghi);
          break;
        }
        case FoldKind::kMaxI64: {
          const __m512i glo =
              _mm512_mask_i32gather_epi64(zero, klo, idx_lo, base, 8);
          const __m512i ghi =
              _mm512_mask_i32gather_epi64(zero, khi, idx_hi, base, 8);
          st.vi = _mm512_mask_max_epi64(st.vi, klo, st.vi, glo);
          st.vi = _mm512_mask_max_epi64(st.vi, khi, st.vi, ghi);
          break;
        }
        case FoldKind::kMinU64: {
          const __m512i glo =
              _mm512_mask_i32gather_epi64(zero, klo, idx_lo, base, 8);
          const __m512i ghi =
              _mm512_mask_i32gather_epi64(zero, khi, idx_hi, base, 8);
          st.vi = _mm512_mask_min_epu64(st.vi, klo, st.vi, glo);
          st.vi = _mm512_mask_min_epu64(st.vi, khi, st.vi, ghi);
          break;
        }
        case FoldKind::kMaxU64: {
          const __m512i glo =
              _mm512_mask_i32gather_epi64(zero, klo, idx_lo, base, 8);
          const __m512i ghi =
              _mm512_mask_i32gather_epi64(zero, khi, idx_hi, base, 8);
          st.vi = _mm512_mask_max_epu64(st.vi, klo, st.vi, glo);
          st.vi = _mm512_mask_max_epu64(st.vi, khi, st.vi, ghi);
          break;
        }
        case FoldKind::kMinF64: {
          const __m512d glo = _mm512_mask_i32gather_pd(
              _mm512_setzero_pd(), klo, idx_lo, base, 8);
          const __m512d ghi = _mm512_mask_i32gather_pd(
              _mm512_setzero_pd(), khi, idx_hi, base, 8);
          st.vd = _mm512_mask_min_pd(st.vd, klo, glo, st.vd);
          st.vd = _mm512_mask_min_pd(st.vd, khi, ghi, st.vd);
          break;
        }
        case FoldKind::kMaxF64: {
          const __m512d glo = _mm512_mask_i32gather_pd(
              _mm512_setzero_pd(), klo, idx_lo, base, 8);
          const __m512d ghi = _mm512_mask_i32gather_pd(
              _mm512_setzero_pd(), khi, idx_hi, base, 8);
          st.vd = _mm512_mask_max_pd(st.vd, klo, glo, st.vd);
          st.vd = _mm512_mask_max_pd(st.vd, khi, ghi, st.vd);
          break;
        }
        case FoldKind::kScalarFold: {
          alignas(64) uint32_t buf[16];
          _mm512_mask_compressstoreu_epi32(buf, k, pos);
          const int n = __builtin_popcount(m);
          for (int i = 0; i < n; ++i) {
            FoldValueAtRow(terms_[t], buf[i], accs_[t]);
          }
          break;
        }
      }
    }
  }

  // Horizontal reductions into the caller's accumulators; returns the
  // match count. Min/max reductions are guarded on matches > 0 so the
  // identity lanes never leak into an empty result.
  size_t Finalize() {
    for (size_t t = 0; t < num_terms_; ++t) {
      TermState& st = state_[t];
      AggAccumulator& acc = accs_[t];
      acc.count += matches_;
      switch (st.kind) {
        case FoldKind::kSumI32:
        case FoldKind::kSumU32:
        case FoldKind::kSumI64:
          acc.sum_bits +=
              static_cast<uint64_t>(_mm512_reduce_add_epi64(st.vi));
          break;
        case FoldKind::kSumF32:
        case FoldKind::kSumF64:
          acc.sum_double += _mm512_reduce_add_pd(st.vd);
          break;
        case FoldKind::kMinI32:
          if (matches_ > 0) {
            FoldSigned(AggOp::kMin, _mm512_reduce_min_epi32(st.vi), acc);
          }
          break;
        case FoldKind::kMaxI32:
          if (matches_ > 0) {
            FoldSigned(AggOp::kMax, _mm512_reduce_max_epi32(st.vi), acc);
          }
          break;
        case FoldKind::kMinU32:
          if (matches_ > 0) {
            FoldUnsigned(AggOp::kMin, _mm512_reduce_min_epu32(st.vi), acc);
          }
          break;
        case FoldKind::kMaxU32:
          if (matches_ > 0) {
            FoldUnsigned(AggOp::kMax, _mm512_reduce_max_epu32(st.vi), acc);
          }
          break;
        case FoldKind::kMinF32:
          if (matches_ > 0) {
            FoldFloat(AggOp::kMin, _mm512_reduce_min_ps(st.vf), acc);
          }
          break;
        case FoldKind::kMaxF32:
          if (matches_ > 0) {
            FoldFloat(AggOp::kMax, _mm512_reduce_max_ps(st.vf), acc);
          }
          break;
        case FoldKind::kMinI64:
          if (matches_ > 0) {
            FoldSigned(AggOp::kMin, _mm512_reduce_min_epi64(st.vi), acc);
          }
          break;
        case FoldKind::kMaxI64:
          if (matches_ > 0) {
            FoldSigned(AggOp::kMax, _mm512_reduce_max_epi64(st.vi), acc);
          }
          break;
        case FoldKind::kMinU64:
          if (matches_ > 0) {
            FoldUnsigned(AggOp::kMin, _mm512_reduce_min_epu64(st.vi), acc);
          }
          break;
        case FoldKind::kMaxU64:
          if (matches_ > 0) {
            FoldUnsigned(AggOp::kMax, _mm512_reduce_max_epu64(st.vi), acc);
          }
          break;
        case FoldKind::kMinF64:
          if (matches_ > 0) {
            FoldFloat(AggOp::kMin, _mm512_reduce_min_pd(st.vd), acc);
          }
          break;
        case FoldKind::kMaxF64:
          if (matches_ > 0) {
            FoldFloat(AggOp::kMax, _mm512_reduce_max_pd(st.vd), acc);
          }
          break;
        case FoldKind::kCountOnly:
        case FoldKind::kScalarFold:
          break;  // Count handled above; scalar folds went direct.
      }
    }
    return matches_;
  }

 private:
  const AggTerm* terms_;
  size_t num_terms_;
  AggAccumulator* accs_;
  TermState state_[kMaxAggTerms];
  size_t matches_ = 0;
};

template <int kBits>
size_t FusedAggScanAvx512(const ScanStage* stages, size_t num_stages,
                          size_t row_count, const AggTerm* terms,
                          size_t num_terms, AggAccumulator* accs) {
  if (row_count == 0) return 0;
  for (size_t s = 0; s < num_stages; ++s) {
    if (stages[s].packed_bits != 0) {
      FTS_CHECK(row_count * stages[s].packed_bits <
                (uint64_t{1} << 32));
    }
  }
  AggSink<kBits> sink(terms, num_terms, accs);
  if (num_stages == 0) {
    // Every conjunct was dropped as tautological, but the aggregate still
    // needs the column values: feed every row to the sink.
    avx512_detail::EmitAllRows<kBits>(row_count, sink);
  } else {
    FusedChain<kBits, AggSink<kBits>> chain(stages, num_stages, sink);
    chain.Run(row_count);
  }
  return sink.Finalize();
}

}  // namespace

size_t FusedAggScanAvx512_512(const ScanStage* stages, size_t num_stages,
                              size_t row_count, const AggTerm* terms,
                              size_t num_terms, AggAccumulator* accs) {
  return FusedAggScanAvx512<512>(stages, num_stages, row_count, terms,
                                 num_terms, accs);
}

size_t FusedAggScanAvx512_256(const ScanStage* stages, size_t num_stages,
                              size_t row_count, const AggTerm* terms,
                              size_t num_terms, AggAccumulator* accs) {
  return FusedAggScanAvx512<256>(stages, num_stages, row_count, terms,
                                 num_terms, accs);
}

size_t FusedAggScanAvx512_128(const ScanStage* stages, size_t num_stages,
                              size_t row_count, const AggTerm* terms,
                              size_t num_terms, AggAccumulator* accs) {
  return FusedAggScanAvx512<128>(stages, num_stages, row_count, terms,
                                 num_terms, accs);
}

}  // namespace fts
