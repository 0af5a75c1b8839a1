// CMOS statistical mismatch (Pelgrom model) for the Monte-Carlo analysis.
//
// The paper's MC targets "the CMOS subsystem and especially the memory cell
// access transistor" with foundry statistical models; we substitute the
// Pelgrom area law: sigma(dVth) = Avt / sqrt(W L), sigma(dBeta/Beta) =
// Abeta / sqrt(W L), independent per transistor, with the technology's
// dev::tech130hv::kAvt and kAbeta.
#pragma once

#include "devices/mosfet.hpp"
#include "util/rng.hpp"

namespace oxmlc::array {

struct MismatchModel {
  bool enabled = true;

  static MismatchModel disabled() {
    MismatchModel m;
    m.enabled = false;
    return m;
  }

  double sigma_vth(const dev::MosfetParams& params) const;
  double sigma_beta_rel(const dev::MosfetParams& params) const;

  // Samples a mismatched copy of `params`.
  dev::MosfetParams sample(const dev::MosfetParams& params, Rng& rng) const;

  // Relative standard deviation of the current copied by a 1:1 mirror built
  // from transistors with `params`, operating at drain current `i`:
  //   sigma_I/I = gm/I * sigma_dVth (+) sigma_dBeta/Beta,
  // with gm/I = 2/Vov and Vov = sqrt(2 i / beta) (square-law). The 1/sqrt(i)
  // growth of the Vth term is why low termination currents show more spread
  // (paper Fig. 12 / ref [34]).
  double mirror_current_sigma_rel(const dev::MosfetParams& params, double i) const;
};

}  // namespace oxmlc::array
