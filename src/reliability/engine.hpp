// Reliability engine: time-dependent state evolution of a whole FastArray.
//
// The write path freezes each cell's gap the instant its termination
// comparator fires; this subsystem owns everything that happens to that state
// afterwards:
//
//   * retention/relaxation drift — the two-component log-time law of
//     oxram/drift.hpp, one DriftTrajectory per cell evaluated at the
//     engine clock (advance());
//   * read disturb — every sense operation biases the cell at Table 1's
//     READ point (oxram::kReadVoltage, kReadWlVoltage) in the SET polarity,
//     nudging the gap toward LRS by the physics rate integrated over the
//     sense duration (on_read() / apply_reads());
//   * endurance — cycle counts per cell compress the switching window
//     (g_min up, g_max down) log-linearly past an onset (EnduranceModel).
//
// The engine hangs off an existing array::FastArray and observes program
// events via on_programmed(): the cell's current gap becomes the drift
// anchor, a fresh per-event relaxation amplitude is drawn, wear is applied.
// The retention sweep and the ECC channel (mlc::DriftingWord) track their
// cells with the same DriftTrajectory, so the three cannot drift apart.
// All stochastic amplitudes come from per-cell generators derived from
// (config.seed, cell index) — deterministic regardless of access order, the
// same contract as FastArray's variability streams.
//
// mlc::MemoryController builds one on the array it samples, reports every
// program/read event to it and adds the relaxation-aware verify and scrub
// policies on top (see mlc/controller.hpp). Cells mutated outside the
// engine's view (manual set_gap) must be re-anchored with on_programmed() or
// the next advance() will overwrite the manual state.
//
// Telemetry: reliability.* counters/timers in the oxmlc.metrics.v1 registry
// (advances, lanes_advanced, reads_disturbed, program_events, advance_time).
#pragma once

#include <cstdint>
#include <vector>

#include "array/fast_array.hpp"
#include "oxram/drift.hpp"
#include "util/rng.hpp"

namespace oxmlc::reliability {

// Read disturb: one sense holds Table 1's READ bias across the stack for
// kSenseDuration. The resulting gap reduction per read is tiny at the
// nominal 0.3 V (that is the point of a low read voltage); a disturb-margin
// study bills a larger stress as more reads (apply_reads).
inline constexpr double kSenseDuration = 100e-9;  // s, one sense operation

struct ReadDisturbModel {
  bool enabled = true;
};

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

// The one read-disturb step, shared by ReliabilityEngine::apply_reads, the
// retention sweep and the ECC channel: the gap of `cell` (its parameters,
// stack and C2C rate factor) after `reads` senses at Table 1's READ point,
// starting from `gap`. The sense biases the cell in the SET polarity; only
// the excess over the zero-bias trajectory in the same stress window is
// billed to the reads. Returns `gap` unchanged when the model is disabled
// or `reads` is 0.
double disturbed_gap(const oxram::FastCell& cell, double gap, bool virgin,
                     std::size_t reads, const ReadDisturbModel& model);

// The window compression applied to `fresh` after `cycles` program events.
oxram::OxramParams worn_params(const oxram::OxramParams& fresh, const EnduranceModel& model,
                               std::uint64_t cycles);

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
  void reanchor(const oxram::DriftParams& drift, double gap, double t, Rng& rng);

  // drifted_gap() at t - t_anchor, plus the disturb offset, clamped to the
  // window of `params` (the cell's current, possibly worn, parameters).
  double gap_at(const oxram::DriftParams& drift, const oxram::OxramParams& params,
                double t) const;
};

struct ReliabilityConfig {
  oxram::DriftParams drift;
  ReadDisturbModel read_disturb;
  EnduranceModel endurance;
  std::uint64_t seed = 0x5EED5EEDULL;
};

class ReliabilityEngine {
 public:
  // Binds to `array` for the array's lifetime; the engine stores no cell
  // physics of its own, only the evolution state (drift trajectory,
  // cycle/read counts) per cell and the engine clock.
  ReliabilityEngine(array::FastArray& array, ReliabilityConfig config);

  // Program-event notification: re-anchors the cell's drift trajectory at
  // its just-programmed gap and the engine clock (DriftTrajectory::reanchor),
  // bumps the cycle count and applies endurance wear to the cell's
  // parameters.
  void on_programmed(std::size_t row, std::size_t col);

  // Read-disturb notification: integrates the gap ODE at the solved cell
  // voltage of one sense (n senses for apply_reads) and folds the result
  // into the cell state immediately.
  void on_read(std::size_t row, std::size_t col);
  void apply_reads(std::size_t row, std::size_t col, std::size_t n);

  // Moves the engine clock by dt and rewrites every programmed cell's gap
  // from its trajectory (DriftTrajectory::gap_at at the new clock).
  // Never-programmed cells are untouched.
  void advance(double dt);

  // Per-cell evolution state, exposed for tests and analysis tooling.
  const DriftTrajectory& trajectory(std::size_t row, std::size_t col) const;
  std::uint64_t cycles(std::size_t row, std::size_t col) const;
  std::uint64_t reads(std::size_t row, std::size_t col) const;

 private:
  std::size_t index(std::size_t row, std::size_t col) const;

  array::FastArray& array_;
  ReliabilityConfig config_;
  double now_ = 0.0;  // s, engine clock

  // One entry per cell (row-major, matching FastArray).
  std::vector<DriftTrajectory> trajectories_;
  std::vector<std::uint64_t> cycles_;
  std::vector<std::uint64_t> reads_;
  std::vector<oxram::OxramParams> fresh_params_;  // pre-wear D2D parameters
  std::vector<Rng> rngs_;            // per-cell amplitude streams
};

}  // namespace oxmlc::reliability
