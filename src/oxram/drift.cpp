#include "oxram/drift.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/simd.hpp"
#include "util/error.hpp"

namespace oxmlc::oxram {
namespace {

constexpr double kBoltzmannEv = 8.617333262e-5;  // eV/K

}  // namespace

double drift_phi(double t, double tau, double nu) {
  if (t <= 0.0) {
    return 0.0;
  }
  return 1.0 - std::pow(1.0 + t / tau, -nu);
}

double drift_acceleration(const DriftParams& p) {
  return std::exp(p.ea_retention / kBoltzmannEv *
                  (1.0 / p.t_reference - 1.0 / p.t_operating));
}

double drifted_gap(const DriftParams& p, double g_anchor, double g_min,
                   double relax_amp, double drift_amp, double t) {
  if (!p.enabled || t <= 0.0) {
    return g_anchor;
  }
  const double depth = std::max(g_anchor - g_min, 0.0);
  const double loss = relax_amp * drift_phi(t, p.tau_fast, p.nu_fast) +
                      drift_amp * drift_phi(t * drift_acceleration(p), p.tau_slow, p.nu_slow);
  return g_anchor - depth * std::min(loss, 1.0);
}

void drifted_gap_batch_reference(const DriftParams& p, std::span<const double> g_anchor,
                                 std::span<const double> g_min,
                                 std::span<const double> relax_amp,
                                 std::span<const double> drift_amp,
                                 std::span<const double> t, std::span<double> out) {
  const std::size_t n = g_anchor.size();
  OXMLC_CHECK(g_min.size() == n && relax_amp.size() == n && drift_amp.size() == n &&
                  t.size() == n && out.size() == n,
              "drifted_gap_batch: span length mismatch");
  if (!p.enabled) {
    std::copy(g_anchor.begin(), g_anchor.end(), out.begin());
    return;
  }
  const double accel = drift_acceleration(p);
  const double inv_tau_fast = 1.0 / p.tau_fast;
  const double inv_tau_slow = accel / p.tau_slow;
  for (std::size_t i = 0; i < n; ++i) {
    const double ti = t[i];
    if (ti <= 0.0) {
      out[i] = g_anchor[i];
      continue;
    }
    // phi = 1 - (1 + t/tau)^-nu evaluated as exp(-nu*log1p(t/tau)); agrees
    // with the scalar pow() path to ~1 ulp (pinned at 1e-9 rel by tests).
    const double phi_fast = 1.0 - std::exp(-p.nu_fast * std::log1p(ti * inv_tau_fast));
    const double phi_slow = 1.0 - std::exp(-p.nu_slow * std::log1p(ti * inv_tau_slow));
    const double depth = std::max(g_anchor[i] - g_min[i], 0.0);
    const double loss = relax_amp[i] * phi_fast + drift_amp[i] * phi_slow;
    out[i] = g_anchor[i] - depth * std::min(loss, 1.0);
  }
}

namespace {

// Pack kernel: the same trajectory with the pack transcendentals, 4 lanes per
// round. Every multiply-add is spelled with P::fma so the compiler cannot
// contract the portable pack differently from the AVX2 one — the two
// instantiations must stay bitwise identical.
template <typename P>
void drifted_gap_batch_pack(const DriftParams& p, const double* g_anchor,
                            const double* g_min, const double* relax_amp,
                            const double* drift_amp, const double* t, double* out,
                            std::size_t n) {
  namespace simd = num::simd;
  using V = typename P::Vec;
  const double accel = drift_acceleration(p);
  const V inv_tau_fast = V::broadcast(1.0 / p.tau_fast);
  const V inv_tau_slow = V::broadcast(accel / p.tau_slow);
  const V neg_nu_fast = V::broadcast(-p.nu_fast);
  const V neg_nu_slow = V::broadcast(-p.nu_slow);
  const V zero = V::broadcast(0.0);
  const V one = V::broadcast(1.0);

  const auto kernel = [&](V ga, V gm, V ra, V da, V ti) {
    const V phi_fast =
        one - simd::exp<P>(neg_nu_fast * simd::log1p<P>(ti * inv_tau_fast));
    const V phi_slow =
        one - simd::exp<P>(neg_nu_slow * simd::log1p<P>(ti * inv_tau_slow));
    const V depth = P::max(ga - gm, zero);
    const V loss = P::min(P::fma(ra, phi_fast, da * phi_slow), one);
    const V drifted = P::fma(zero - depth, loss, ga);
    // t <= 0 lanes stay at the anchor, exactly like the reference early-out.
    return P::select(P::le(ti, zero), ga, drifted);
  };

  std::size_t i = 0;
  for (; i + simd::kPackWidth <= n; i += simd::kPackWidth) {
    kernel(V::load(&g_anchor[i]), V::load(&g_min[i]), V::load(&relax_amp[i]),
           V::load(&drift_amp[i]), V::load(&t[i]))
        .store(&out[i]);
  }
  if (i < n) {
    // Remainder: pad the tail into full packs (lanewise ops cannot leak across
    // lanes, so the padding value is irrelevant — t = 0 keeps it benign).
    double ga[simd::kPackWidth] = {}, gm[simd::kPackWidth] = {},
           ra[simd::kPackWidth] = {}, da[simd::kPackWidth] = {},
           ti[simd::kPackWidth] = {}, res[simd::kPackWidth] = {};
    for (std::size_t k = i; k < n; ++k) {
      ga[k - i] = g_anchor[k];
      gm[k - i] = g_min[k];
      ra[k - i] = relax_amp[k];
      da[k - i] = drift_amp[k];
      ti[k - i] = t[k];
    }
    kernel(V::load(ga), V::load(gm), V::load(ra), V::load(da), V::load(ti)).store(res);
    for (std::size_t k = i; k < n; ++k) out[k] = res[k - i];
  }
}

}  // namespace

void drifted_gap_batch(const DriftParams& p, std::span<const double> g_anchor,
                       std::span<const double> g_min, std::span<const double> relax_amp,
                       std::span<const double> drift_amp, std::span<const double> t,
                       std::span<double> out) {
  const std::size_t n = g_anchor.size();
  OXMLC_CHECK(g_min.size() == n && relax_amp.size() == n && drift_amp.size() == n &&
                  t.size() == n && out.size() == n,
              "drifted_gap_batch: span length mismatch");
  if (!p.enabled) {
    std::copy(g_anchor.begin(), g_anchor.end(), out.begin());
    return;
  }
  const num::simd::Backend backend = num::simd::active_backend();
#if OXMLC_SIMD_HAS_AVX2
  if (backend == num::simd::Backend::kAvx2) {
    drifted_gap_batch_pack<num::simd::PackAvx>(p, g_anchor.data(), g_min.data(),
                                               relax_amp.data(), drift_amp.data(),
                                               t.data(), out.data(), n);
    return;
  }
#else
  static_cast<void>(backend);
#endif
  drifted_gap_batch_pack<num::simd::PackScalar>(p, g_anchor.data(), g_min.data(),
                                                relax_amp.data(), drift_amp.data(),
                                                t.data(), out.data(), n);
}

double sample_relaxation_amplitude(const DriftParams& p, Rng& rng) {
  if (!p.enabled) {
    return 0.0;
  }
  return p.relax_fraction * rng.lognormal(0.0, p.sigma_relax);
}

double sample_drift_amplitude(const DriftParams& p, Rng& rng) {
  if (!p.enabled) {
    return 0.0;
  }
  return p.drift_fraction * rng.lognormal(0.0, p.sigma_drift_rel);
}

}  // namespace oxmlc::oxram
