// Post-program state evolution of the OxRAM gap: retention/relaxation drift,
// read disturb and endurance wear.
//
// The write-termination scheme freezes the gap the instant the comparator
// fires, but programmed HRS states are not stationary: the filament keeps
// rearranging after the pulse ends. Measured OxRAM behaviour (programmed-state
// stability studies, arXiv:1810.10528) is log-time conductance drift with two
// distinguishable components, both of which selectively close adjacent-level
// margins in an MLC allocation:
//
//   * fast post-program RELAXATION — a one-shot transient per program event:
//     unstable vacancy configurations left behind by the terminated RESET
//     settle within ~ms, partially re-closing the gap (resistance drops).
//     Its magnitude is stochastic per event (a C2C quantity), which is what a
//     relaxation-aware verify (arXiv:2301.08516) exploits: wait tau_relax,
//     re-sense, and re-terminate only the cells whose draw landed in the tail.
//   * slow RETENTION drift — thermally-activated filament regrowth over
//     device lifetime, log-time with a per-cell activation (a D2D quantity),
//     Arrhenius-accelerated by the bake/operating temperature.
//
// Both use the saturating log-time kernel
//
//   phi(t) = 1 - (1 + t/tau)^-nu        (0 at t = 0, -> 1 as t -> inf;
//                                        ~ nu * ln(1 + t/tau) while small)
//
// and act multiplicatively on the programmed depth above the LRS floor:
//
//   g(t) = g_min + (g_anchor - g_min) *
//          [1 - relax_amp * phi(t, tau_fast, nu_fast)
//             - drift_amp * phi(t * a_T, tau_slow, nu_slow)]    (clamped)
//
// so deeper states drift by more in absolute gap — and, since R ~ exp(g/g0),
// by much more in ohms — which is exactly the margin-closure asymmetry the
// stability studies report. Every trajectory is monotone in t, so a
// population's *open* inter-level window only ever shrinks and decode errors
// only ever accumulate (both test-pinned). The relaxation amplitude is a
// moderate-median, heavy-tailed lognormal: the bulk of program events stays
// well inside a QLC band (which is what lets a few verify passes converge)
// while the tail draws are the ones that cross bands and close the
// worst-case window — the selection effect the relaxation-aware verify
// exploits.
//
// drifted_gap() is the one implementation of the law; every consumer reaches
// it through DriftTrajectory below (see DESIGN.md). Beside it sit the two
// other ways a cell ages after its terminated RESET:
//
//   * read disturb — every sense biases the cell at Table 1's READ point
//     (kReadVoltage, kReadWlVoltage) in the SET polarity, nudging the gap
//     toward LRS by the physics rate integrated over the sense duration
//     (disturbed_gap);
//   * endurance — the cell's cycle count compresses its switching window
//     (g_min up, g_max down) log-linearly past an onset (worn_params).
//
// mlc::MemoryController applies all three to the cells it manages; the
// retention sweep and the ECC channel run them through mlc::DriftingWord.
#pragma once

#include <cstddef>
#include <cstdint>

#include "oxram/fast_cell.hpp"
#include "util/rng.hpp"

namespace oxmlc::oxram {

struct DriftParams {
  bool enabled = true;

  // Fast post-program relaxation (per-event amplitude, sampled by
  // sample_relaxation_amplitude at each program event).
  double tau_fast = 1e-6;      // s; relaxation onset (after the pulse tail)
  double nu_fast = 0.8;        // kernel exponent: mostly settled by ~1e3*tau
  double relax_fraction = 0.015;  // median fractional depth relaxed as t->inf
  double sigma_relax = 0.9;       // lognormal sigma of the per-event amplitude

  // Slow retention drift (per-cell amplitude, sampled once per device by
  // sample_drift_amplitude — the "activation" D2D quantity).
  double tau_slow = 1.0;       // s
  double nu_slow = 0.06;       // log-time slope: decades of t keep closing
  double drift_fraction = 0.12;  // median fractional depth lost as t->inf
  double sigma_drift_rel = 0.3;  // lognormal sigma of the per-cell amplitude

  // Arrhenius acceleration of the slow component: time is scaled by
  // exp(ea/k * (1/T_ref - 1/T_oper)); T_oper = T_ref means factor 1.
  double ea_retention = 0.45;  // eV
  double t_reference = 300.0;  // K; temperature the fractions are quoted at
  double t_operating = 300.0;  // K; bake / operating temperature
};

// Saturating log-time kernel phi(t) = 1 - (1 + t/tau)^-nu; 0 for t <= 0.
double drift_phi(double t, double tau, double nu);

// Arrhenius time-acceleration factor of the slow component.
double drift_acceleration(const DriftParams& p);

// Gap `t` seconds after the anchor event (the anchor itself for t <= 0).
// `g_anchor` is the gap at the last program event, `g_min` the cell's LRS
// floor, `relax_amp`/`drift_amp` the sampled fractional amplitudes.
double drifted_gap(const DriftParams& p, double g_anchor, double g_min,
                   double relax_amp, double drift_amp, double t);

// Per-program-event fast-relaxation amplitude: lognormal around
// relax_fraction. One draw per call; 0 when drift is disabled.
double sample_relaxation_amplitude(const DriftParams& p, Rng& rng);

// Per-cell slow-drift amplitude: lognormal around drift_fraction. One draw
// per call; 0 when drift is disabled.
double sample_drift_amplitude(const DriftParams& p, Rng& rng);

// One cell's post-program drift trajectory: the gap at its last program
// event, when that event happened, the amplitudes drawn for it and the
// read-disturb shift accumulated since. Times are absolute on the owner's
// clock.
struct DriftTrajectory {
  bool programmed = false;  // false until the first reanchor()
  double anchor = 0.0;      // gap at the last program event
  double t_anchor = 0.0;    // s, time of the last program event
  double relax_amp = 0.0;   // per-event fast amplitude
  double drift_amp = 0.0;   // per-cell slow amplitude, drawn on the first event
  double offset = 0.0;      // accumulated read-disturb gap shift (<= 0)

  // Program event at time `t` that left the cell at `gap`: re-anchors, clears
  // the disturb offset and draws a fresh relaxation amplitude from `rng`,
  // then, on the cell's first event only, its slow-drift amplitude.
  void reanchor(const DriftParams& drift, double gap, double t, Rng& rng);

  // drifted_gap() at t - t_anchor, plus the disturb offset, clamped to the
  // window of `params` (the cell's current, possibly worn, parameters).
  double gap_at(const DriftParams& drift, const OxramParams& params, double t) const;
};

// Read disturb: one sense holds Table 1's READ bias across the stack for
// kSenseDuration. The resulting gap reduction per read is tiny at the
// nominal 0.3 V (that is the point of a low read voltage); a disturb-margin
// study bills a larger stress as more reads.
inline constexpr double kSenseDuration = 100e-9;  // s, one sense operation

struct ReadDisturbModel {
  bool enabled = true;
};

// The one read-disturb step, shared by the controller, the retention sweep
// and the ECC channel: the gap of `cell` (its parameters, forming state,
// stack and C2C rate factor) after `reads` senses at Table 1's READ point,
// starting from `gap`. The sense biases the cell in the SET polarity; only
// the excess over the zero-bias trajectory in the same stress window is
// billed to the reads. Returns `gap` unchanged when the model is disabled
// or `reads` is 0.
double disturbed_gap(const FastCell& cell, double gap, std::size_t reads,
                     const ReadDisturbModel& model);

// Endurance: window compression past an onset cycle count. The fractional
// loss per decade is split between the two window edges,
//   loss = min(kMaxWindowLoss, loss_per_decade * log10(cycles / onset)),
// raising g_min by loss/2 * window and lowering g_max symmetrically — the
// classic tail-bit signature where cycled cells can no longer reach the
// deepest HRS levels nor the strongest LRS.
inline constexpr double kMaxWindowLoss = 0.5;  // fraction of the fresh window

struct EnduranceModel {
  double onset_cycles = 1e5;
  double loss_per_decade = 0.05;  // fraction of the fresh window per decade
};

// The window compression applied to `fresh` after `cycles` program events.
OxramParams worn_params(const OxramParams& fresh, const EnduranceModel& model,
                        std::uint64_t cycles);

}  // namespace oxmlc::oxram
