#include "fts/jit/code_generator.h"

#include "fts/common/string_util.h"

namespace fts {
namespace {

// Intrinsic spellings per register width. The generated code mirrors the
// static FusedChain (fts/simd/kernels_avx512.cc) but with every per-stage
// decision — type, comparator, 32/64-bit gather shape — burned in.
struct WidthStrings {
  int bits;
  int lanes;
  const char* vec;        // Register type.
  const char* mask;       // Lane-mask type (32-bit lanes).
  const char* setzero;
  const char* set1_32;
  const char* set1_64;
  const char* add32;
  const char* maskz_loadu32;
  const char* maskz_loadu64;
  const char* compress32;
  const char* expand32;
  const char* compressstore32;
  const char* gather32;       // (zero, k, idx, base, 4)
  const char* gather64;       // (zero, k, idx_half, base, 8)
  const char* idx_lo;         // Low-half index extraction, %POS% placeholder.
  const char* idx_hi;
  const char* cast_ps;
  const char* cast_pd;
  const char* cmp_i32;
  const char* cmp_u32;
  const char* cmp_ps;
  const char* cmp_i64;
  const char* cmp_u64;
  const char* cmp_pd;
  const char* setr_indices;   // Ascending 0..lanes-1 constant.
  // Bit-packed unpack primitives.
  const char* mullo32;
  const char* srli32;
  const char* and_op;
  const char* srlv64;
  const char* widen_lo;       // cvtepu32_epi64 of the low half, %V%.
  const char* widen_hi;
};

constexpr WidthStrings kWidth512 = {
    512,
    16,
    "__m512i",
    "__mmask16",
    "_mm512_setzero_si512()",
    "_mm512_set1_epi32",
    "_mm512_set1_epi64",
    "_mm512_add_epi32",
    "_mm512_maskz_loadu_epi32",
    "_mm512_maskz_loadu_epi64",
    "_mm512_maskz_compress_epi32",
    "_mm512_mask_expand_epi32",
    "_mm512_mask_compressstoreu_epi32",
    "_mm512_mask_i32gather_epi32",
    "_mm512_mask_i32gather_epi64",
    "_mm512_castsi512_si256(%POS%)",
    "_mm512_extracti64x4_epi64(%POS%, 1)",
    "_mm512_castsi512_ps",
    "_mm512_castsi512_pd",
    "_mm512_mask_cmp_epi32_mask",
    "_mm512_mask_cmp_epu32_mask",
    "_mm512_mask_cmp_ps_mask",
    "_mm512_mask_cmp_epi64_mask",
    "_mm512_mask_cmp_epu64_mask",
    "_mm512_mask_cmp_pd_mask",
    "_mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, "
    "15)",
    "_mm512_mullo_epi32",
    "_mm512_srli_epi32",
    "_mm512_and_si512",
    "_mm512_srlv_epi64",
    "_mm512_cvtepu32_epi64(_mm512_castsi512_si256(%V%))",
    "_mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(%V%, 1))",
};

constexpr WidthStrings kWidth256 = {
    256,
    8,
    "__m256i",
    "__mmask8",
    "_mm256_setzero_si256()",
    "_mm256_set1_epi32",
    "_mm256_set1_epi64x",
    "_mm256_add_epi32",
    "_mm256_maskz_loadu_epi32",
    "_mm256_maskz_loadu_epi64",
    "_mm256_maskz_compress_epi32",
    "_mm256_mask_expand_epi32",
    "_mm256_mask_compressstoreu_epi32",
    "_mm256_mmask_i32gather_epi32",
    "_mm256_mmask_i32gather_epi64",
    "_mm256_castsi256_si128(%POS%)",
    "_mm256_extracti128_si256(%POS%, 1)",
    "_mm256_castsi256_ps",
    "_mm256_castsi256_pd",
    "_mm256_mask_cmp_epi32_mask",
    "_mm256_mask_cmp_epu32_mask",
    "_mm256_mask_cmp_ps_mask",
    "_mm256_mask_cmp_epi64_mask",
    "_mm256_mask_cmp_epu64_mask",
    "_mm256_mask_cmp_pd_mask",
    "_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)",
    "_mm256_mullo_epi32",
    "_mm256_srli_epi32",
    "_mm256_and_si256",
    "_mm256_srlv_epi64",
    "_mm256_cvtepu32_epi64(_mm256_castsi256_si128(%V%))",
    "_mm256_cvtepu32_epi64(_mm256_extracti128_si256(%V%, 1))",
};

constexpr WidthStrings kWidth128 = {
    128,
    4,
    "__m128i",
    "__mmask8",
    "_mm_setzero_si128()",
    "_mm_set1_epi32",
    "_mm_set1_epi64x",
    "_mm_add_epi32",
    "_mm_maskz_loadu_epi32",
    "_mm_maskz_loadu_epi64",
    "_mm_maskz_compress_epi32",
    "_mm_mask_expand_epi32",
    "_mm_mask_compressstoreu_epi32",
    "_mm_mmask_i32gather_epi32",
    "_mm_mmask_i32gather_epi64",
    "%POS%",
    "_mm_unpackhi_epi64(%POS%, %POS%)",
    "_mm_castsi128_ps",
    "_mm_castsi128_pd",
    "_mm_mask_cmp_epi32_mask",
    "_mm_mask_cmp_epu32_mask",
    "_mm_mask_cmp_ps_mask",
    "_mm_mask_cmp_epi64_mask",
    "_mm_mask_cmp_epu64_mask",
    "_mm_mask_cmp_pd_mask",
    "_mm_setr_epi32(0, 1, 2, 3)",
    "_mm_mullo_epi32",
    "_mm_srli_epi32",
    "_mm_and_si128",
    "_mm_srlv_epi64",
    "_mm_cvtepu32_epi64(%V%)",
    "_mm_cvtepu32_epi64(_mm_unpackhi_epi64(%V%, %V%))",
};

const WidthStrings* WidthFor(int bits) {
  switch (bits) {
    case 512:
      return &kWidth512;
    case 256:
      return &kWidth256;
    case 128:
      return &kWidth128;
    default:
      return nullptr;
  }
}

bool Is64Bit(ScanElementType type) {
  return type == ScanElementType::kI64 || type == ScanElementType::kU64 ||
         type == ScanElementType::kF64;
}

const char* CppTypeFor(ScanElementType type) {
  switch (type) {
    case ScanElementType::kI32:
      return "int32_t";
    case ScanElementType::kU32:
      return "uint32_t";
    case ScanElementType::kF32:
      return "float";
    case ScanElementType::kI64:
      return "int64_t";
    case ScanElementType::kU64:
      return "uint64_t";
    case ScanElementType::kF64:
      return "double";
  }
  return "?";
}

const char* IntImmFor(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "_MM_CMPINT_EQ";
    case CompareOp::kLt:
      return "_MM_CMPINT_LT";
    case CompareOp::kLe:
      return "_MM_CMPINT_LE";
    case CompareOp::kNe:
      return "_MM_CMPINT_NE";
    case CompareOp::kGe:
      return "_MM_CMPINT_NLT";
    case CompareOp::kGt:
      return "_MM_CMPINT_NLE";
  }
  return "?";
}

const char* FloatImmFor(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "_CMP_EQ_OQ";
    case CompareOp::kLt:
      return "_CMP_LT_OS";
    case CompareOp::kLe:
      return "_CMP_LE_OS";
    case CompareOp::kNe:
      return "_CMP_NEQ_UQ";
    case CompareOp::kGe:
      return "_CMP_GE_OS";
    case CompareOp::kGt:
      return "_CMP_GT_OS";
  }
  return "?";
}

// True when any aggregate term reads column values (COUNT-only terms fold
// nothing per row; the match count is added to every term at return).
bool AnyAggValueTerm(const JitScanSignature& sig) {
  for (const JitAggSignature& a : sig.aggs) {
    if (a.op != AggOp::kCount) return true;
  }
  return false;
}

// Per-row fold statements of the aggregate terms for survivor row `r`
// (inside the generated fold_rows loop). Mirrors FoldValueAtRow with every
// op/type/domain decision burned in.
std::string AggFoldBody(const JitScanSignature& sig) {
  std::string out;
  for (size_t t = 0; t < sig.aggs.size(); ++t) {
    const JitAggSignature& a = sig.aggs[t];
    if (a.op == AggOp::kCount) continue;
    const std::string v = StrFormat("agg_col%zu[r]", t);
    if (a.op == AggOp::kSum) {
      switch (a.domain) {
        case AggDomain::kSigned:
          out += StrFormat(
              "      accs[%zu].sum_bits += (unsigned long long)(long long)"
              "%s;\n",
              t, v.c_str());
          break;
        case AggDomain::kUnsigned:
          out += StrFormat(
              "      accs[%zu].sum_bits += (unsigned long long)%s;\n", t,
              v.c_str());
          break;
        case AggDomain::kFloat:
          out += StrFormat("      accs[%zu].sum_double += (double)%s;\n", t,
                           v.c_str());
          break;
      }
      continue;
    }
    // MIN / MAX: widen to the accumulator domain, then conditional update.
    const char* wide = a.domain == AggDomain::kSigned ? "long long"
                       : a.domain == AggDomain::kUnsigned
                           ? "unsigned long long"
                           : "double";
    const char* field =
        a.domain == AggDomain::kSigned
            ? (a.op == AggOp::kMin ? "min_i" : "max_i")
            : a.domain == AggDomain::kUnsigned
                  ? (a.op == AggOp::kMin ? "min_u" : "max_u")
                  : (a.op == AggOp::kMin ? "min_d" : "max_d");
    out += StrFormat(
        "      { const %s fv%zu = (%s)%s;\n"
        "        if (fv%zu %s accs[%zu].%s) accs[%zu].%s = fv%zu; }\n",
        wide, t, wide, v.c_str(), t, a.op == AggOp::kMin ? "<" : ">", t,
        field, t, field, t);
  }
  return out;
}

// Final-stage emission statements: what happens to a surviving mask of
// positions. Three shapes: COUNT-only aggregate terms (popcount), value
// aggregate terms (compress-store survivors to a stack buffer, fold each,
// popcount), or position materialization (compress-store to `out`).
std::string FinalEmitCode(const WidthStrings& w, const JitScanSignature& sig,
                          const std::string& mask, const std::string& pos,
                          const char* indent) {
  std::string out;
  if (!sig.aggs.empty() && AnyAggValueTerm(sig)) {
    out += StrFormat("%salignas(64) uint32_t fold_buf[16];\n", indent);
    out += StrFormat("%s%s(fold_buf, %s, %s);\n", indent, w.compressstore32,
                     mask.c_str(), pos.c_str());
    out += StrFormat(
        "%sfold_rows(fold_buf, __builtin_popcount((unsigned)%s));\n", indent,
        mask.c_str());
  } else if (sig.aggs.empty()) {
    out += StrFormat("%s%s(out + out_count, %s, %s);\n", indent,
                     w.compressstore32, mask.c_str(), pos.c_str());
  }
  out += StrFormat("%sout_count += (size_t)__builtin_popcount((unsigned)%s);\n",
                   indent, mask.c_str());
  return out;
}

// Masked-compare expression for `lanes`-wide 32-bit data, e.g.
// _mm512_mask_cmp_epi32_mask(valid, a, search, _MM_CMPINT_EQ).
std::string Cmp32Expr(const WidthStrings& w, ScanElementType type,
                      CompareOp op, const std::string& valid,
                      const std::string& a, const std::string& b) {
  switch (type) {
    case ScanElementType::kI32:
      return StrFormat("%s(%s, %s, %s, %s)", w.cmp_i32, valid.c_str(),
                       a.c_str(), b.c_str(), IntImmFor(op));
    case ScanElementType::kU32:
      return StrFormat("%s(%s, %s, %s, %s)", w.cmp_u32, valid.c_str(),
                       a.c_str(), b.c_str(), IntImmFor(op));
    case ScanElementType::kF32:
      return StrFormat("%s(%s, %s(%s), %s(%s), %s)", w.cmp_ps, valid.c_str(),
                       w.cast_ps, a.c_str(), w.cast_ps, b.c_str(),
                       FloatImmFor(op));
    default:
      break;
  }
  return "#error unreachable";
}

std::string Cmp64Expr(const WidthStrings& w, ScanElementType type,
                      CompareOp op, const std::string& valid,
                      const std::string& a, const std::string& b) {
  switch (type) {
    case ScanElementType::kI64:
      return StrFormat("%s(%s, %s, %s, %s)", w.cmp_i64, valid.c_str(),
                       a.c_str(), b.c_str(), IntImmFor(op));
    case ScanElementType::kU64:
      return StrFormat("%s(%s, %s, %s, %s)", w.cmp_u64, valid.c_str(),
                       a.c_str(), b.c_str(), IntImmFor(op));
    case ScanElementType::kF64:
      return StrFormat("%s(%s, %s(%s), %s(%s), %s)", w.cmp_pd, valid.c_str(),
                       w.cast_pd, a.c_str(), w.cast_pd, b.c_str(),
                       FloatImmFor(op));
    default:
      break;
  }
  return "#error unreachable";
}

// Per-stage constants for a bit-packed stage: the search code broadcast
// as epi64 (codes are unpacked into 64-bit lanes), the bit-width
// multiplier, and the code mask.
std::string PackedDecls(const WidthStrings& w, size_t s, int bits) {
  std::string out;
  out += StrFormat(
      "  const %s search%zu = %s(*reinterpret_cast<const uint32_t*>("
      "values_bytes + %zu));\n",
      w.vec, s, w.set1_64, s * kJitValueSlotBytes);
  out += StrFormat("  const %s pk_mult%zu = %s(%d);\n", w.vec, s, w.set1_32,
                   bits);
  out += StrFormat("  const %s pk_mask%zu = %s(%lldLL);\n", w.vec, s,
                   w.set1_64,
                   static_cast<long long>((1ull << bits) - 1));
  return out;
}

// Unpack-and-compare of packed stage `s` at the rows in `row_vec`:
// byte-granular 8-byte window gathers, variable shift, mask, epu64
// compare. Defines `<result>` in the enclosing scope.
std::string PackedCompareCode(const WidthStrings& w,
                              const JitScanSignature& sig, size_t s,
                              const std::string& row_vec,
                              const std::string& valid,
                              const std::string& result) {
  const int half = w.lanes / 2;
  const CompareOp op = sig.stages[s].op;
  const std::string idx_lo = ReplaceAll(w.idx_lo, "%POS%", "pk_byteoff");
  const std::string idx_hi = ReplaceAll(w.idx_hi, "%POS%", "pk_byteoff");
  const std::string widen_lo = ReplaceAll(w.widen_lo, "%V%", "pk_shift");
  const std::string widen_hi = ReplaceAll(w.widen_hi, "%V%", "pk_shift");

  std::string out;
  out += StrFormat("    const %s pk_bitoff = %s(%s, pk_mult%zu);\n", w.vec,
                   w.mullo32, row_vec.c_str(), s);
  out += StrFormat("    const %s pk_byteoff = %s(pk_bitoff, 3);\n", w.vec,
                   w.srli32);
  out += StrFormat("    const %s pk_shift = %s(pk_bitoff, pk_seven);\n",
                   w.vec, w.and_op);
  out += StrFormat(
      "    const __mmask8 pk_vlo = (__mmask8)(%s & %uu);\n",
      valid.c_str(), (1u << half) - 1);
  out += StrFormat("    const __mmask8 pk_vhi = (__mmask8)(%s >> %d);\n",
                   valid.c_str(), half);
  out += StrFormat(
      "    const %s pk_clo = %s(%s(%s(%s, pk_vlo, %s, col%zu, 1), %s), "
      "pk_mask%zu);\n",
      w.vec, w.and_op, w.srlv64, w.gather64, w.setzero, idx_lo.c_str(), s,
      widen_lo.c_str(), s);
  out += StrFormat(
      "    const %s pk_chi = %s(%s(%s(%s, pk_vhi, %s, col%zu, 1), %s), "
      "pk_mask%zu);\n",
      w.vec, w.and_op, w.srlv64, w.gather64, w.setzero, idx_hi.c_str(), s,
      widen_hi.c_str(), s);
  out += StrFormat(
      "    const %s %s = (%s)((unsigned)%s | ((unsigned)%s << %d));\n",
      w.mask, result.c_str(), w.mask,
      Cmp64Expr(w, ScanElementType::kU64, op, "pk_vlo", "pk_clo",
                StrFormat("search%zu", s))
          .c_str(),
      Cmp64Expr(w, ScanElementType::kU64, op, "pk_vhi", "pk_chi",
                StrFormat("search%zu", s))
          .c_str(),
      half);
  return out;
}

// Broadcast declaration for a stage's search value.
std::string SearchDecl(const WidthStrings& w, size_t s,
                       ScanElementType type) {
  // Values are read from 8-byte slots as raw bits; floats are broadcast by
  // bit pattern and compared through a register cast, so no precision is
  // lost.
  if (Is64Bit(type)) {
    return StrFormat(
        "  const %s search%zu = %s(*reinterpret_cast<const long long*>("
        "values_bytes + %zu));\n",
        w.vec, s, w.set1_64, s * kJitValueSlotBytes);
  }
  return StrFormat(
      "  const %s search%zu = %s(*reinterpret_cast<const int*>("
      "values_bytes + %zu));\n",
      w.vec, s, w.set1_32, s * kJitValueSlotBytes);
}

// Emits process_<s>: apply predicate s to a register of positions.
std::string ProcessLambda(const WidthStrings& w, const JitScanSignature& sig,
                          size_t s) {
  const ScanElementType type = sig.stages[s].type;
  const CompareOp op = sig.stages[s].op;
  const bool last = (s + 1 == sig.stages.size());
  std::string body;

  if (sig.stages[s].packed_bits != 0) {
    body += PackedCompareCode(w, sig, s, "pos", "valid", "m");
  } else if (!Is64Bit(type)) {
    body += StrFormat(
        "    const %s g = %s(%s, valid, pos, col%zu, 4);\n", w.vec,
        w.gather32, w.setzero, s);
    body += StrFormat("    const %s m = %s;\n", w.mask,
                      Cmp32Expr(w, type, op, "valid", "g",
                                StrFormat("search%zu", s))
                          .c_str());
  } else {
    // Width transition: two half-width 64-bit gathers per position
    // register (Section V's index-list split).
    const int half = w.lanes / 2;
    const std::string idx_lo = ReplaceAll(w.idx_lo, "%POS%", "pos");
    const std::string idx_hi = ReplaceAll(w.idx_hi, "%POS%", "pos");
    body += StrFormat(
        "    const __mmask8 valid_lo = (__mmask8)(valid & %uu);\n",
        (1u << half) - 1);
    body += StrFormat("    const __mmask8 valid_hi = (__mmask8)(valid >> "
                      "%d);\n",
                      half);
    body += StrFormat(
        "    const %s g_lo = %s(%s, valid_lo, %s, col%zu, 8);\n", w.vec,
        w.gather64, w.setzero, idx_lo.c_str(), s);
    body += StrFormat(
        "    const %s g_hi = %s(%s, valid_hi, %s, col%zu, 8);\n", w.vec,
        w.gather64, w.setzero, idx_hi.c_str(), s);
    body += StrFormat(
        "    const %s m = (%s)((unsigned)%s | ((unsigned)%s << %d));\n",
        w.mask, w.mask,
        Cmp64Expr(w, type, op, "valid_lo", "g_lo",
                  StrFormat("search%zu", s))
            .c_str(),
        Cmp64Expr(w, type, op, "valid_hi", "g_hi",
                  StrFormat("search%zu", s))
            .c_str(),
        half);
  }

  body += "    if (m == 0) return;\n";
  if (last) {
    body += FinalEmitCode(w, sig, "m", "pos", "    ");
  } else {
    body += StrFormat(
        "    push_%zu(%s(m, pos), __builtin_popcount((unsigned)m));\n",
        s + 1, w.compress32);
  }

  return StrFormat("  const auto process_%zu = [&](%s pos, %s valid) {\n%s"
                   "  };\n",
                   s, w.vec, w.mask, body.c_str());
}

// Emits push_<s>: append positions to stage s's accumulator, flushing the
// incomplete list first on overflow (Section III).
std::string PushLambda(const WidthStrings& w, size_t s) {
  return StrFormat(
      "  const auto push_%zu = [&](%s vals, int n) {\n"
      "    if (cnt%zu + n > %d) {\n"
      "      const int pending = cnt%zu;\n"
      "      cnt%zu = 0;\n"
      "      process_%zu(acc%zu, (%s)((1u << pending) - 1));\n"
      "    }\n"
      "    acc%zu = %s(acc%zu, (%s)(~0u << cnt%zu), vals);\n"
      "    cnt%zu += n;\n"
      "    if (cnt%zu == %d) {\n"
      "      cnt%zu = 0;\n"
      "      process_%zu(acc%zu, (%s)((1u << %d) - 1));\n"
      "    }\n"
      "  };\n",
      s, w.vec, s, w.lanes, s, s, s, s, w.mask, s, w.expand32, s, w.mask, s,
      s, s, w.lanes, s, s, s, w.mask, w.lanes);
}

// Emits the main block loop over the first column.
std::string MainLoop(const WidthStrings& w, const JitScanSignature& sig) {
  const ScanElementType type = sig.stages[0].type;
  const CompareOp op = sig.stages[0].op;
  const bool single = sig.stages.size() == 1;
  const int half = w.lanes / 2;

  std::string compare_block;
  if (sig.stages[0].packed_bits != 0) {
    compare_block += PackedCompareCode(w, sig, 0, "indices", "valid", "m0");
  } else if (!Is64Bit(type)) {
    compare_block += StrFormat(
        "    const %s data0 = %s(valid, col0 + start * 4);\n", w.vec,
        w.maskz_loadu32);
    compare_block += StrFormat(
        "    const %s m0 = %s;\n", w.mask,
        Cmp32Expr(w, type, op, "valid", "data0", "search0").c_str());
  } else {
    compare_block += StrFormat(
        "    const __mmask8 valid_lo = (__mmask8)(valid & %uu);\n",
        (1u << half) - 1);
    compare_block += StrFormat(
        "    const __mmask8 valid_hi = (__mmask8)(valid >> %d);\n", half);
    compare_block += StrFormat(
        "    const %s d_lo = %s(valid_lo, col0 + start * 8);\n", w.vec,
        w.maskz_loadu64);
    compare_block += StrFormat(
        "    const %s d_hi = %s(valid_hi, col0 + (start + %d) * 8);\n",
        w.vec, w.maskz_loadu64, half);
    compare_block += StrFormat(
        "    const %s m0 = (%s)((unsigned)%s | ((unsigned)%s << %d));\n",
        w.mask, w.mask,
        Cmp64Expr(w, type, op, "valid_lo", "d_lo", "search0").c_str(),
        Cmp64Expr(w, type, op, "valid_hi", "d_hi", "search0").c_str(), half);
  }

  std::string on_match;
  if (single) {
    on_match = FinalEmitCode(w, sig, "m0", "indices", "      ");
  } else {
    on_match = StrFormat(
        "      push_1(%s(m0, indices), __builtin_popcount((unsigned)m0));\n",
        w.compress32);
  }

  return StrFormat(
      "  %s indices = %s;\n"
      "  const %s step = %s(%d);\n"
      "  const size_t blocks = (row_count + %d) / %d;\n"
      "  for (size_t b = 0; b < blocks; ++b) {\n"
      "    const size_t start = b * %d;\n"
      "    const size_t left = row_count - start;\n"
      "    const %s valid = (%s)((left >= %d) ? %uu : ((1u << left) - 1));\n"
      "%s"
      "    if (m0 != 0) {\n"
      "%s"
      "    }\n"
      "    indices = %s(indices, step);\n"
      "  }\n",
      w.vec, w.setr_indices, w.vec, w.set1_32, w.lanes, w.lanes - 1,
      w.lanes, w.lanes, w.mask, w.mask, w.lanes, (1u << w.lanes) - 1,
      compare_block.c_str(), on_match.c_str(), w.add32);
}

// Field-for-field mirror of fts::AggAccumulator (every member 8 bytes, no
// padding — pinned by static_asserts on both sides) over the operator's
// `out` argument.
constexpr const char* kAccMirrorSource =
    "  struct Acc {\n"
    "    unsigned long long count;\n"
    "    unsigned long long sum_bits;\n"
    "    double sum_double;\n"
    "    long long min_i;\n"
    "    long long max_i;\n"
    "    unsigned long long min_u;\n"
    "    unsigned long long max_u;\n"
    "    double min_d;\n"
    "    double max_d;\n"
    "  };\n"
    "  static_assert(sizeof(Acc) == 72,\n"
    "                \"mirror of fts::AggAccumulator\");\n"
    "  Acc* const accs = reinterpret_cast<Acc*>(out);\n";

}  // namespace

StatusOr<std::string> GenerateFusedScanSource(
    const JitScanSignature& signature) {
  const WidthStrings* width = WidthFor(signature.register_bits);
  if (width == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "invalid register width %d (need 128/256/512)",
        signature.register_bits));
  }
  if (signature.stages.empty() ||
      signature.stages.size() > kMaxScanStages) {
    return Status::InvalidArgument(
        StrFormat("signature has %zu stages; supported range is 1..%zu",
                  signature.stages.size(), kMaxScanStages));
  }
  if (signature.aggs.size() > kMaxAggTerms) {
    return Status::InvalidArgument(
        StrFormat("signature has %zu aggregate terms; kernels support up "
                  "to %zu",
                  signature.aggs.size(), kMaxAggTerms));
  }
  bool any_packed = false;
  for (const JitStageSignature& stage : signature.stages) {
    if (stage.packed_bits == 0) continue;
    any_packed = true;
    if (stage.type != ScanElementType::kU32) {
      return Status::InvalidArgument(
          "bit-packed stages scan uint32 dictionary codes");
    }
    if (stage.packed_bits > 26) {
      return Status::InvalidArgument(
          StrFormat("packed bit width %d exceeds the supported 26",
                    stage.packed_bits));
    }
  }
  const WidthStrings& w = *width;
  const size_t n = signature.stages.size();

  std::string src;
  src += StrFormat(
      "// Generated by fts::GenerateFusedScanSource.\n"
      "// Signature: %s\n"
      "#include <immintrin.h>\n"
      "#include <cstddef>\n"
      "#include <cstdint>\n\n"
      "extern \"C\" size_t %s(const void* const* columns,\n"
      "                       const void* values, size_t row_count,\n"
      "                       uint32_t* out) {\n"
      "  if (row_count == 0) return 0;\n"
      "  const char* const values_bytes =\n"
      "      static_cast<const char*>(values);\n"
      "  size_t out_count = 0;\n",
      signature.CacheKey().c_str(), kJitScanSymbol);

  // Aggregate-pushdown state: the accumulator mirror, the typed aggregate
  // column pointers (appended after the stage columns), and the
  // per-survivor fold loop.
  if (!signature.aggs.empty()) {
    src += kAccMirrorSource;
    for (size_t t = 0; t < signature.aggs.size(); ++t) {
      if (signature.aggs[t].op == AggOp::kCount) continue;
      const char* type = CppTypeFor(signature.aggs[t].type);
      src += StrFormat(
          "  const %s* const agg_col%zu = static_cast<const %s*>("
          "columns[%zu]);\n",
          type, t, type, n + t);
    }
    if (AnyAggValueTerm(signature)) {
      src += StrFormat(
          "  const auto fold_rows = [&](const uint32_t* rows, int fn) {\n"
          "    for (int fi = 0; fi < fn; ++fi) {\n"
          "      const size_t r = rows[fi];\n"
          "%s"
          "    }\n"
          "  };\n",
          AggFoldBody(signature).c_str());
    }
  }

  // Column pointers and broadcast search values.
  if (any_packed) {
    src += StrFormat("  const %s pk_seven = %s(7);\n", w.vec, w.set1_32);
  }
  for (size_t s = 0; s < n; ++s) {
    src += StrFormat(
        "  const char* const col%zu = static_cast<const char*>("
        "columns[%zu]);\n",
        s, s);
    if (signature.stages[s].packed_bits != 0) {
      src += PackedDecls(w, s, signature.stages[s].packed_bits);
    } else {
      src += SearchDecl(w, s, signature.stages[s].type);
    }
  }
  // Accumulators for stages 1..n-1.
  for (size_t s = 1; s < n; ++s) {
    src += StrFormat("  %s acc%zu = %s;\n  int cnt%zu = 0;\n", w.vec, s,
                     w.setzero, s);
  }
  src += "\n";

  // Lambdas, innermost stage first so each push can call the next
  // process. C++ lambdas capture by reference, giving the same chain the
  // static kernel builds with member functions.
  for (size_t s = n; s-- > 1;) {
    src += ProcessLambda(w, signature, s);
    src += PushLambda(w, s);
  }

  src += MainLoop(w, signature);

  // Drain partial accumulators front to back.
  for (size_t s = 1; s < n; ++s) {
    src += StrFormat(
        "  if (cnt%zu > 0) {\n"
        "    const int pending = cnt%zu;\n"
        "    cnt%zu = 0;\n"
        "    process_%zu(acc%zu, (%s)((1u << pending) - 1));\n"
        "  }\n",
        s, s, s, s, s, w.mask);
  }
  // Every term's count is the conjunction's match count, folded once.
  for (size_t t = 0; t < signature.aggs.size(); ++t) {
    src += StrFormat(
        "  accs[%zu].count += (unsigned long long)out_count;\n", t);
  }
  src += "  return out_count;\n}\n";
  return src;
}

}  // namespace fts
