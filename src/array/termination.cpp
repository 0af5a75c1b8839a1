#include "array/termination.hpp"

#include <cmath>

#include "devices/passive.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace oxmlc::array {

void TerminationCircuit::apply_mismatch(const MismatchModel& model, Rng& rng) const {
  for (dev::Mosfet* fet : {m1, m2, m3, m4, m5, m6, inv_n, inv_p}) {
    OXMLC_CHECK(fet != nullptr, "termination circuit not built");
    const dev::MosfetParams& nominal = fet->params();
    fet->apply_mismatch(rng.normal(0.0, model.sigma_vth(nominal)),
                        rng.normal(0.0, model.sigma_beta_rel(nominal)));
  }
}

TerminationCircuit build_termination_circuit(spice::Circuit& circuit,
                                             const std::string& prefix, int bl,
                                             int vdd_node, double iref) {
  const TerminationSizing mirrors;
  const dev::MosfetParams bias_nmos = dev::tech130hv::nmos(60e-6, 3e-6);  // M5, M6
  const dev::MosfetParams inverter_n = dev::tech130hv::nmos(2e-6, 0.5e-6);
  const dev::MosfetParams inverter_p = dev::tech130hv::pmos(4e-6, 0.5e-6);
  TerminationCircuit tc;
  tc.bl = bl;
  tc.node_a = circuit.node(prefix + "_A");
  tc.out = circuit.node(prefix + "_out");
  const int bias = circuit.node(prefix + "_bias");     // M5 diode node
  const int refd = circuit.node(prefix + "_refdiode");  // M3 diode node

  // --- current copy stage: M1 diode-connected on the BL, M2 copies Icell ---
  tc.m1 = &circuit.add<dev::Mosfet>(prefix + "_M1", bl, bl, spice::kGround, spice::kGround,
                                    mirrors.copy_mirror);
  tc.m2 = &circuit.add<dev::Mosfet>(prefix + "_M2", tc.node_a, bl, spice::kGround,
                                    spice::kGround, mirrors.copy_mirror);

  // --- IrefR generation: ideal bandgap-derived source into diode M5, copied
  // by M6 into the PMOS diode M3 ---
  circuit.add<dev::CurrentSource>(prefix + "_Iref", vdd_node, bias, iref);
  tc.m5 = &circuit.add<dev::Mosfet>(prefix + "_M5", bias, bias, spice::kGround,
                                    spice::kGround, bias_nmos);
  tc.m6 = &circuit.add<dev::Mosfet>(prefix + "_M6", refd, bias, spice::kGround,
                                    spice::kGround, bias_nmos);

  // --- reference mirror: M3 diode at VDD, M4 sources IrefR into node A ---
  tc.m3 = &circuit.add<dev::Mosfet>(prefix + "_M3", refd, refd, vdd_node, vdd_node,
                                    mirrors.reference_mirror);
  tc.m4 = &circuit.add<dev::Mosfet>(prefix + "_M4", tc.node_a, refd, vdd_node, vdd_node,
                                    mirrors.reference_mirror);

  // --- inverter I1: node A -> out ---
  tc.inv_p = &circuit.add<dev::Mosfet>(prefix + "_I1p", tc.out, tc.node_a, vdd_node,
                                       vdd_node, inverter_p);
  tc.inv_n = &circuit.add<dev::Mosfet>(prefix + "_I1n", tc.out, tc.node_a, spice::kGround,
                                       spice::kGround, inverter_n);
  // Small load keeping the inverter output pole realistic.
  circuit.add<dev::Capacitor>(prefix + "_Cout", tc.out, spice::kGround, 20e-15);
  circuit.add<dev::Capacitor>(prefix + "_Ca", tc.node_a, spice::kGround, 10e-15);

  return tc;
}

double TerminationBehavior::iref_sigma_rel(double iref) const {
  if (!mismatch.enabled || iref <= 0.0) return 0.0;
  // The NMOS copy mirror (M1/M2) operates at Icell ~ IrefR near the decision
  // point; the PMOS mirror (M3/M4) carries IrefR. The bias pair (M5/M6)
  // distributes the bandgap-derived reference: its error is common to every
  // cell programmed through the same reference tree (it shifts all levels
  // together rather than eating adjacent margins), so like the paper's
  // PVT-stable bandgap assumption [23] it is excluded from the per-cell draw.
  const double s_copy = mismatch.mirror_current_sigma_rel(sizing.copy_mirror, iref);
  const double s_ref = mismatch.mirror_current_sigma_rel(sizing.reference_mirror, iref);
  return std::sqrt(s_copy * s_copy + s_ref * s_ref);
}

double TerminationBehavior::sample_effective_iref(double iref, Rng& rng) const {
  static obs::Counter& samples =
      obs::registry().counter("termination.mismatch_samples");
  // Relative reference error per draw, in percent: the quantity Fig. 12's
  // margin budget is spent on.
  static obs::Histogram& error_pct =
      obs::registry().histogram("termination.iref_error_pct", -15.0, 15.0, 30);
  const double sigma = iref_sigma_rel(iref);
  // Truncate at 4 sigma and at half/double the nominal so a rare tail draw
  // cannot produce a nonphysical (negative or runaway) reference.
  const double factor = rng.truncated_normal(1.0, sigma, 0.5, 2.0);
  samples.add();
  error_pct.observe((factor - 1.0) * 100.0);
  return iref * factor;
}

}  // namespace oxmlc::array
