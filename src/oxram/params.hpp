// OxRAM compact-model parameters and their statistical variation.
//
// Model lineage. The paper simulates TiN/Ti/HfO2/TiN 1T-1R cells with the
// Bocquet–Aziza electrochemical compact model [21,22], calibrated on an 8x8
// 130 nm test chip, with +/-5 % standard deviation on the transfer coefficient
// alpha and the oxide thickness Lx. We implement the same electrochemical
// structure — Butler–Volmer oxidation/reduction rates in the cell voltage,
// Arrhenius temperature activation, local Joule heating — applied to a
// *gap-length* state variable `g` with exponential (trap-assisted-tunneling)
// conduction, the standard formulation for filamentary HfO2 devices. The gap
// form is chosen because the paper's own evaluation depends on HRS depth over
// four decades (38 kOhm ... 382 MOhm), which a radius-only conduction law
// cannot span; the calibration targets are the paper's measured anchors
// (Table 2, Figs. 8/10). See DESIGN.md "substitutions".
//
// State:  g in [g_min, g_max]   (gap length, metres; g ~ 0 = LRS)
// Conduction:
//   I(V, g) = i0 * exp(-g / g0) * sinh(V / v0) + V / r_leak
// Dynamics (dg/dt). The RESET driving force is field-limited: the barrier
// lowering scales with the field across the gap region, so dissolution is fast
// while the gap is short and self-limits as it deepens — this is what makes
// RESET a negative-feedback process (paper §3.2) and what stretches the
// termination latency at low reference currents (Fig. 13b). SET (reduction)
// is tip-generation dominated and sees the full cell voltage, which restores
// the LRS in ~100 ns even from a saturated HRS.
//
//   field(g)  = sqrt(g_ref / max(g, g_ref/4))            (clamped at 2)
//   oxidation (gap growth, RESET, V < 0):
//     +k0 * (1 - g/g_max) * exp(-(ea_ox - alpha * xi * |V| * field(g)) / kT_loc)
//   reduction (gap shrink, SET, V > 0):
//     -k0 * (g/g_max) * exp(-(ea_red + dEa_form[virgin] - (1-alpha) * xi * V) / kT_loc)
//   kT_loc includes Joule self-heating: T_loc = T_amb + r_th * |V * I|.
//   (exponents are clamped at 0, i.e. rates saturate at the attempt velocity)
//
// Sign convention: V = V(TE) - V(BE), TE wired to the bit line. V > 0 is the
// SET polarity (Table 1: BL = 1.2 V), V < 0 is RESET (SL = 1.2 V).
#pragma once

#include "util/rng.hpp"

namespace oxmlc::oxram {

struct OxramParams {
  // --- conduction ---
  double i0 = 80e-6;        // A; filament conduction prefactor
  double g0 = 0.25e-9;      // m; tunneling attenuation length
  double v0 = 0.40;         // V; sinh nonlinearity scale
  double r_leak = 5e9;      // Ohm; parallel leakage floor (numerics + deep HRS)

  // --- gap range ---
  double g_min = 0.25e-9;   // m; fully-SET residual gap
  double g_max = 2.90e-9;   // m; fully-RESET gap (saturated HRS)
  double g_virgin = 2.90e-9;  // m; as-fabricated gap (before FORMING)

  // --- dynamics ---
  double k0 = 1000.0;       // m/s; attempt velocity (phonon freq x hop dist)
  double ea_ox = 0.510;     // eV; oxidation (RESET) barrier
  double ea_red = 0.870;    // eV; reduction (SET) barrier
  double dea_form = 0.75;   // eV; extra barrier while the device is virgin
  double alpha = 0.25;      // transfer coefficient (0..1), paper's `alpha`
  double xi = 0.82;         // eV/V; electrochemical barrier-lowering efficiency
  double g_ref = 0.30e-9;   // m; field-reference gap for the RESET force
  double lx = 10e-9;        // m; HfO2 thickness, paper's `Lx` (scales v0)

  // --- thermal ---
  double t_ambient = 300.0; // K
  double r_th = 3e5;        // K/W; effective thermal resistance of the CF
  double t_max_rise = 400.0;  // K; cap on Joule heating (melting-point guard)

  // Nominal thickness used to translate Lx variation into field variation.
  static constexpr double kNominalLx = 10e-9;
};

// Device-to-device (D2D) and cycle-to-cycle (C2C) variability.
//
// The paper states +/-5 % sigma on alpha and Lx for D2D
// (kSigmaAlphaRel, kSigmaLxRel); C2C is modelled as a lognormal fluctuation
// of the switching rates per operation (kSigmaRateC2c), which captures the
// stochastic (thermally-activated) nature of each switching event.
inline constexpr double kSigmaAlphaRel = 0.05;  // paper: 5 % on alpha
inline constexpr double kSigmaLxRel = 0.05;     // paper: 5 % on Lx
inline constexpr double kSigmaRateC2c = 0.10;   // lognormal sigma on k0 per operation

struct OxramVariability {
  bool enabled = true;

  static OxramVariability disabled() {
    OxramVariability v;
    v.enabled = false;
    return v;
  }
};

// Samples a device instance: applies D2D variation to alpha and Lx. The Lx
// variation propagates into the field-dependent quantities (v0 and g0 scale
// with thickness; thicker oxide = weaker field = weaker nonlinearity).
OxramParams sample_device(const OxramParams& nominal, const OxramVariability& variability,
                          Rng& rng);

// Samples the per-operation C2C rate multiplier (1.0 when disabled).
double sample_cycle_rate_factor(const OxramVariability& variability, Rng& rng);

}  // namespace oxmlc::oxram
