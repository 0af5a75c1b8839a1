// Accuracy and backend-identity suite for the num::simd pack layer.
//
// The contract the batch kernel builds on:
//   1. pack exp agrees with libm to ~1 ulp (asserted at 1e-13 relative,
//      orders tighter than the 1e-9 the kernel itself is pinned at);
//   2. the AVX2 and portable packs produce BITWISE-identical results (same
//      IEEE operation sequence by construction), so runtime dispatch can
//      never change a simulation result;
//   3. saturation/edge inputs (denormals, +/-0, overflow range) behave like
//      libm or saturate harmlessly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "numeric/simd.hpp"
#include "util/rng.hpp"

namespace oxmlc::num::simd {
namespace {

template <typename P>
std::vector<double> eval_exp(const std::vector<double>& xs) {
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i + kPackWidth <= xs.size(); i += kPackWidth) {
    exp<P>(P::Vec::load(&xs[i])).store(&out[i]);
  }
  for (std::size_t i = xs.size() - xs.size() % kPackWidth; i < xs.size(); ++i) {
    typename P::Vec v = P::Vec::broadcast(xs[i]);
    out[i] = exp<P>(v).lane(0);
  }
  return out;
}

std::vector<double> random_range(double lo, double hi, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

TEST(SimdExp, MatchesLibmOverKernelRange) {
  // The kernel evaluates exp on rate exponents (<= 0, down to ~-600 in the
  // saturated-rate clamp) and sinh/cosh arguments (|x| <= 60). Cover the full
  // span plus margins.
  for (double lo_hi : {60.0, 600.0}) {
    const std::vector<double> xs = random_range(-lo_hi, lo_hi, 4096, 0xABCD0u + 7);
    const std::vector<double> got = eval_exp<PackScalar>(xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double want = std::exp(xs[i]);
      EXPECT_NEAR(got[i], want, 1e-13 * std::fabs(want))
          << "x=" << xs[i];
    }
  }
}

TEST(SimdExp, SaturationAndSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  auto exp1 = [](double x) {
    return exp<PackScalar>(PackScalar::Vec::broadcast(x)).lane(0);
  };
  EXPECT_EQ(exp1(0.0), 1.0);
  EXPECT_EQ(exp1(800.0), inf);
  EXPECT_EQ(exp1(inf), inf);
  EXPECT_EQ(exp1(-800.0), 0.0);
  EXPECT_EQ(exp1(-inf), 0.0);
  // Denormal argument: exp(x) ~ 1 + x rounds to exactly 1.
  EXPECT_EQ(exp1(5e-324), 1.0);
  EXPECT_EQ(exp1(-5e-324), 1.0);
}

#if OXMLC_SIMD_HAS_AVX2
TEST(SimdBackends, Avx2BitwiseIdenticalToPortable) {
  if (!avx2_available()) GTEST_SKIP() << "host CPU lacks AVX2+FMA";
  std::vector<double> xs = random_range(-600.0, 600.0, 4096, 0xF00Du);
  const std::vector<double> a = eval_exp<PackScalar>(xs);
  const std::vector<double> b = eval_exp<PackAvx>(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "exp mismatch at x=" << xs[i];
  }
}
#endif

TEST(SimdDispatch, BackendResolutionAndOverride) {
  const Backend resolved = active_backend();
  EXPECT_NE(resolved, Backend::kAuto);
  if (!avx2_available()) {
    EXPECT_NE(resolved, Backend::kAvx2);
  }

  const Backend prev = set_backend_override(Backend::kScalar);
  EXPECT_EQ(active_backend(), Backend::kScalar);
  // Requesting AVX2 on a host without it degrades to the portable pack
  // instead of faulting.
  set_backend_override(Backend::kAvx2);
  EXPECT_EQ(active_backend(), avx2_available() ? Backend::kAvx2 : Backend::kScalar);
  set_backend_override(prev);

  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
}

}  // namespace
}  // namespace oxmlc::num::simd
