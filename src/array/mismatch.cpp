#include "array/mismatch.hpp"

#include <cmath>

namespace oxmlc::array {

double MismatchModel::sigma_vth(const dev::MosfetParams& params) const {
  if (!enabled) return 0.0;
  return dev::tech130hv::kAvt / std::sqrt(params.w * params.l);
}

double MismatchModel::sigma_beta_rel(const dev::MosfetParams& params) const {
  if (!enabled) return 0.0;
  return dev::tech130hv::kAbeta / std::sqrt(params.w * params.l);
}

dev::MosfetParams MismatchModel::sample(const dev::MosfetParams& params, Rng& rng) const {
  dev::MosfetParams out = params;
  if (!enabled) return out;
  out.vt0 += rng.normal(0.0, sigma_vth(params));
  out.kp *= std::max(0.1, 1.0 + rng.normal(0.0, sigma_beta_rel(params)));
  return out;
}

double MismatchModel::mirror_current_sigma_rel(const dev::MosfetParams& params,
                                               double i) const {
  if (!enabled || i <= 0.0) return 0.0;
  const double vov = std::sqrt(2.0 * i / params.beta());
  const double gm_over_i = 2.0 / std::max(vov, 1e-3);
  const double vth_term = gm_over_i * sigma_vth(params);
  const double beta_term = sigma_beta_rel(params);
  // Two mirror legs contribute independently: sqrt(2) on the pair.
  return std::sqrt(2.0 * (vth_term * vth_term + beta_term * beta_term));
}

}  // namespace oxmlc::array
