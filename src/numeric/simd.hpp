// Fixed-width SIMD packs for the hot batch kernel (stack solve, gap
// integration).
//
// Two interchangeable backends implement the same 4-lane pack interface:
//
//   * PackAvx    — AVX2 + FMA intrinsics, compiled only when the translation
//                  unit is built with those ISAs enabled (OXMLC_NATIVE, or an
//                  explicit -march=x86-64-v3 style flag).
//   * PackScalar — portable element-wise loops over the *same* arithmetic
//                  (std::fma where the AVX path uses vfmadd, IEEE ±*/sqrt
//                  everywhere else), always compiled.
//
// Every kernel in the repo is a template over the pack type and is
// instantiated for both backends, so the two paths execute the same sequence
// of IEEE-754 double operations lane by lane and produce BITWISE-IDENTICAL
// results — which is what lets the equivalence suite pin "same results across
// SIMD widths/ISAs" as an exact assertion instead of a tolerance. The
// transcendental (exp) is our own fma-explicit polynomial implementation for
// the same reason: libm's vectorized and scalar exp need not agree bitwise,
// ours do by construction. Accuracy is ~1 ulp (tested against libm at 1e-13
// relative), far inside the 1e-9 pin the scalar reference paths are held to.
//
// Backend selection is a runtime decision (see simd.cpp): kAuto resolves to
// AVX2 when the binary carries the AVX2 instantiation *and* cpuid reports the
// ISA, else the portable pack. The OXMLC_SIMD environment variable and the
// set_backend_override() test hook force a specific backend. Either way the
// call site (CellBatch) runs its one pack engine; the backend only picks
// which instantiation.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define OXMLC_SIMD_HAS_AVX2 1
#else
#define OXMLC_SIMD_HAS_AVX2 0
#endif

namespace oxmlc::num::simd {

inline constexpr int kPackWidth = 4;

// ---------------------------------------------------------------------------
// Runtime backend selection (implemented in simd.cpp).
// ---------------------------------------------------------------------------

enum class Backend {
  kAuto = 0,    // resolve from compile flags + cpuid + OXMLC_SIMD env var
  kScalar = 1,  // portable element-wise pack
  kAvx2 = 2,    // AVX2 + FMA pack (requires the AVX2 instantiation)
};

// True when this binary contains the AVX2 instantiations AND the host CPU
// reports AVX2 + FMA.
bool avx2_available();

// Resolves kAuto to a concrete backend (kScalar / kAvx2), honouring the
// OXMLC_SIMD env var ("auto", "avx2", "scalar"; any other value throws
// InvalidArgumentError) and any set_backend_override() in effect. Never
// returns kAuto.
Backend active_backend();

// Test hook: forces the backend until reset with kAuto. Returns the previous
// override.
Backend set_backend_override(Backend backend);

const char* backend_name(Backend backend);

// ---------------------------------------------------------------------------
// Shared constants of the transcendental kernels.
// ---------------------------------------------------------------------------

namespace detail {
inline constexpr double kLog2E = 1.4426950408889634073599246810019;
// ln2 split hi/lo so n*ln2 subtracts exactly (Cody-Waite range reduction).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kExpOverflow = 709.0;    // exp(x) saturates to inf above
inline constexpr double kExpUnderflow = -708.0;  // exp(x) flushes to 0 below
// 2^52 + 2^51: adding it to an integer-valued double in (-2^51, 2^51) leaves
// that integer in the low mantissa bits (the classic double->int64 round trip).
inline constexpr double kShifter = 6755399441055744.0;
inline constexpr std::int64_t kShifterBits = 0x4338000000000000LL;

// Degree-13 Taylor coefficients of exp(r) on |r| <= ln2/2; truncation error
// ~2e-18 relative, below the 1-ulp target.
inline constexpr double kExpC[14] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
};
}  // namespace detail

// ---------------------------------------------------------------------------
// Portable pack (always compiled). Element-wise loops over IEEE operations;
// std::fma keeps the arithmetic identical to the AVX2 vfmadd path.
// ---------------------------------------------------------------------------

struct PackScalar {
  struct Mask {
    bool m[kPackWidth];
    friend Mask operator&(Mask a, Mask b) {
      Mask r;
      for (int i = 0; i < kPackWidth; ++i) r.m[i] = a.m[i] && b.m[i];
      return r;
    }
    friend Mask operator|(Mask a, Mask b) {
      Mask r;
      for (int i = 0; i < kPackWidth; ++i) r.m[i] = a.m[i] || b.m[i];
      return r;
    }
    Mask operator!() const {
      Mask r;
      for (int i = 0; i < kPackWidth; ++i) r.m[i] = !m[i];
      return r;
    }
    bool any() const { return m[0] || m[1] || m[2] || m[3]; }
    bool all() const { return m[0] && m[1] && m[2] && m[3]; }
  };

  struct Vec {
    double v[kPackWidth];

    static Vec load(const double* p) {
      Vec r;
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = p[i];
      return r;
    }
    static Vec broadcast(double x) {
      Vec r;
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = x;
      return r;
    }
    void store(double* p) const {
      for (int i = 0; i < kPackWidth; ++i) p[i] = v[i];
    }
    double lane(int i) const { return v[i]; }
    void set_lane(int i, double x) { v[i] = x; }

    friend Vec operator+(Vec a, Vec b) {
      Vec r;
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = a.v[i] + b.v[i];
      return r;
    }
    friend Vec operator-(Vec a, Vec b) {
      Vec r;
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = a.v[i] - b.v[i];
      return r;
    }
    friend Vec operator*(Vec a, Vec b) {
      Vec r;
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = a.v[i] * b.v[i];
      return r;
    }
    friend Vec operator/(Vec a, Vec b) {
      Vec r;
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = a.v[i] / b.v[i];
      return r;
    }
    Vec operator-() const {
      Vec r;
      // 0 - v, not IEEE negate: mirrors the AVX2 path (_mm256_sub_pd from
      // zero), which differ on signed zeros.
      for (int i = 0; i < kPackWidth; ++i) r.v[i] = 0.0 - v[i];
      return r;
    }
  };

  static Vec fma(Vec a, Vec b, Vec c) {
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
    return r;
  }
  static Vec min(Vec a, Vec b) {
    Vec r;
    // Mirrors _mm256_min_pd: returns b when a < b is false (incl. NaN in a).
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static Vec abs(Vec a) {
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = std::fabs(a.v[i]);
    return r;
  }
  static Vec sqrt(Vec a) {
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = std::sqrt(a.v[i]);
    return r;
  }
  static Vec round_nearest(Vec a) {
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = std::nearbyint(a.v[i]);
    return r;
  }
  static Mask lt(Vec a, Vec b) {
    Mask r;
    for (int i = 0; i < kPackWidth; ++i) r.m[i] = a.v[i] < b.v[i];
    return r;
  }
  static Mask le(Vec a, Vec b) {
    Mask r;
    for (int i = 0; i < kPackWidth; ++i) r.m[i] = a.v[i] <= b.v[i];
    return r;
  }
  static Mask gt(Vec a, Vec b) { return lt(b, a); }
  static Mask ge(Vec a, Vec b) { return le(b, a); }
  static Vec select(Mask m, Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) r.v[i] = m.m[i] ? a.v[i] : b.v[i];
    return r;
  }

  // Bit-level helper used by exp range reduction (element-wise mirror of the
  // AVX2 integer ops).
  static Vec ldexp_pow2(Vec n) {  // 2^n for integer-valued n in [-1022, 1023]
    Vec r;
    for (int i = 0; i < kPackWidth; ++i) {
      const std::int64_t bits = (static_cast<std::int64_t>(n.v[i]) + 1023) << 52;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      r.v[i] = d;
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// AVX2 + FMA pack (compiled only when the TU targets those ISAs).
// ---------------------------------------------------------------------------

#if OXMLC_SIMD_HAS_AVX2
struct PackAvx {
  struct Mask {
    __m256d m;
    friend Mask operator&(Mask a, Mask b) { return {_mm256_and_pd(a.m, b.m)}; }
    friend Mask operator|(Mask a, Mask b) { return {_mm256_or_pd(a.m, b.m)}; }
    Mask operator!() const {
      return {_mm256_xor_pd(m, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)))};
    }
    bool any() const { return _mm256_movemask_pd(m) != 0; }
    bool all() const { return _mm256_movemask_pd(m) == 0xF; }
  };

  struct Vec {
    __m256d v;

    static Vec load(const double* p) { return {_mm256_loadu_pd(p)}; }
    static Vec broadcast(double x) { return {_mm256_set1_pd(x)}; }
    void store(double* p) const { _mm256_storeu_pd(p, v); }
    double lane(int i) const {
      alignas(32) double tmp[kPackWidth];
      _mm256_store_pd(tmp, v);
      return tmp[i];
    }
    void set_lane(int i, double x) {
      alignas(32) double tmp[kPackWidth];
      _mm256_store_pd(tmp, v);
      tmp[i] = x;
      v = _mm256_load_pd(tmp);
    }

    friend Vec operator+(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
    friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
    friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
    friend Vec operator/(Vec a, Vec b) { return {_mm256_div_pd(a.v, b.v)}; }
    Vec operator-() const { return {_mm256_sub_pd(_mm256_setzero_pd(), v)}; }
  };

  static Vec fma(Vec a, Vec b, Vec c) { return {_mm256_fmadd_pd(a.v, b.v, c.v)}; }
  static Vec min(Vec a, Vec b) { return {_mm256_min_pd(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm256_max_pd(a.v, b.v)}; }
  static Vec abs(Vec a) {
    const __m256d sign = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
    return {_mm256_and_pd(a.v, sign)};
  }
  static Vec sqrt(Vec a) { return {_mm256_sqrt_pd(a.v)}; }
  static Vec round_nearest(Vec a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }
  static Mask lt(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }
  static Mask le(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)}; }
  static Mask gt(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)}; }
  static Mask ge(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
  static Vec select(Mask m, Vec a, Vec b) { return {_mm256_blendv_pd(b.v, a.v, m.m)}; }

  static Vec ldexp_pow2(Vec n) {
    // Integer-valued n -> int64 via the 2^52+2^51 shifter, then build the
    // exponent field directly.
    const __m256d shifted = _mm256_add_pd(n.v, _mm256_set1_pd(detail::kShifter));
    const __m256i bits = _mm256_sub_epi64(_mm256_castpd_si256(shifted),
                                          _mm256_set1_epi64x(detail::kShifterBits));
    const __m256i pow2 =
        _mm256_slli_epi64(_mm256_add_epi64(bits, _mm256_set1_epi64x(1023)), 52);
    return {_mm256_castsi256_pd(pow2)};
  }
};
#endif  // OXMLC_SIMD_HAS_AVX2

// ---------------------------------------------------------------------------
// Transcendental, templated over the pack. Identical operation sequences in
// both backends => bitwise-identical results.
// ---------------------------------------------------------------------------

// exp(x) to ~1 ulp. Saturates: x > 709 -> inf, x < -708 -> 0 (both far outside
// every kernel's operating range; the clamp only guards pathological inputs).
template <typename P>
typename P::Vec exp(typename P::Vec x) {
  using V = typename P::Vec;
  const V overflow = V::broadcast(detail::kExpOverflow);
  const V underflow = V::broadcast(detail::kExpUnderflow);
  const V xc = P::min(P::max(x, underflow), overflow);

  const V n = P::round_nearest(xc * V::broadcast(detail::kLog2E));
  V r = P::fma(n, V::broadcast(-detail::kLn2Hi), xc);
  r = P::fma(n, V::broadcast(-detail::kLn2Lo), r);

  V p = V::broadcast(detail::kExpC[13]);
  for (int k = 12; k >= 0; --k) p = P::fma(p, r, V::broadcast(detail::kExpC[k]));
  V result = p * P::ldexp_pow2(n);

  result = P::select(P::gt(x, overflow),
                     V::broadcast(std::numeric_limits<double>::infinity()), result);
  result = P::select(P::lt(x, underflow), V::broadcast(0.0), result);
  return result;
}

}  // namespace oxmlc::num::simd
