// Accuracy and backend-identity suite for the num::simd pack layer.
//
// The contract the batch kernels build on:
//   1. pack exp/log1p agree with libm to ~1 ulp (asserted at 1e-13 relative,
//      orders tighter than the 1e-9 the kernels themselves are pinned at);
//   2. the AVX2 and portable packs produce BITWISE-identical results (same
//      IEEE operation sequence by construction), so runtime dispatch can
//      never change a simulation result;
//   3. saturation/edge inputs (denormals, +/-0, overflow range, x <= -1 for
//      log1p) behave like libm or saturate harmlessly.
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

template <typename P>
std::vector<double> eval_log1p(const std::vector<double>& xs) {
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i + kPackWidth <= xs.size(); i += kPackWidth) {
    log1p<P>(P::Vec::load(&xs[i])).store(&out[i]);
  }
  for (std::size_t i = xs.size() - xs.size() % kPackWidth; i < xs.size(); ++i) {
    typename P::Vec v = P::Vec::broadcast(xs[i]);
    out[i] = log1p<P>(v).lane(0);
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
  // The kernels evaluate exp on: rate exponents (<= 0, down to ~-600 in the
  // saturated-rate clamp), sinh/cosh arguments (|x| <= 60), and drift kernels
  // (-30..0). Cover the full span plus margins.
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

TEST(SimdLog1p, MatchesLibmOverKernelRange) {
  // Drift kernel arguments: t/tau spans denormal .. ~1e19 across the decade
  // sweeps and Arrhenius acceleration.
  std::vector<double> xs = random_range(0.0, 10.0, 2048, 0x1234u);
  for (double scale : {1e-12, 1e-6, 1e-2, 1.0, 1e4, 1e12, 1e18}) {
    for (std::size_t i = 0; i < 64; ++i) {
      xs.push_back(scale * (1.0 + static_cast<double>(i) / 7.0));
    }
  }
  const std::vector<double> got = eval_log1p<PackScalar>(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double want = std::log1p(xs[i]);
    EXPECT_NEAR(got[i], want, 1e-13 * std::max(std::fabs(want), 1e-300))
        << "x=" << xs[i];
  }
}

TEST(SimdLog1p, EdgeCases) {
  auto log1p1 = [](double x) {
    return log1p<PackScalar>(PackScalar::Vec::broadcast(x)).lane(0);
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(log1p1(0.0), 0.0);
  // Tiny and denormal x: log1p(x) ~ x exactly at double precision.
  EXPECT_EQ(log1p1(1e-300), 1e-300);
  EXPECT_EQ(log1p1(5e-324), 5e-324);
  EXPECT_EQ(log1p1(-1.0), -inf);
  EXPECT_TRUE(std::isnan(log1p1(-1.5)));
  EXPECT_EQ(log1p1(inf), inf);
  // Near-cancellation region x ~ -0.5 .. 0.5 hits the correction term.
  for (double x : {-0.5, -0.3, -1e-8, 1e-8, 0.3, 0.5}) {
    EXPECT_NEAR(log1p1(x), std::log1p(x), 1e-15 * std::max(1.0, std::fabs(std::log1p(x))))
        << x;
  }
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
  std::vector<double> ys = random_range(0.0, 1e6, 4096, 0xBEEFu);
  const std::vector<double> la = eval_log1p<PackScalar>(ys);
  const std::vector<double> lb = eval_log1p<PackAvx>(ys);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    EXPECT_EQ(la[i], lb[i]) << "log1p mismatch at x=" << ys[i];
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
