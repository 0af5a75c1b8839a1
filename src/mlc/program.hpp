// QLC programming and read flows built on the write-termination scheme, plus
// the prior-art baselines it is compared against (Table 4).
//
// Programming a level (paper §4.2): the word is first entirely SET, then a
// RESET is applied with the per-bit-line termination reference selected by the
// data bus; the write-termination circuit ends the pulse when the cell current
// falls to IrefR. No read-verify is involved — that is the paper's headline
// claim, and the ProgramAndVerify baseline quantifies what it saves.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "array/sense_amp.hpp"
#include "array/termination.hpp"
#include "mlc/levels.hpp"
#include "oxram/fast_cell.hpp"

namespace oxmlc::mlc {

// The relaxation-aware verify's wait before each re-sense, in every verify
// loop: the fast relaxation is >99 % expressed at 1 ms with the default
// tau_fast = 1 us, nu_fast = 0.8.
inline constexpr double kVerifyWait = 1e-3;  // s

struct ProgramOutcome {
  std::size_t level = 0;
  double effective_iref = 0.0;   // termination current after mismatch sampling
  double resistance = 0.0;       // post-program cell resistance at 0.3 V
  double latency = 0.0;          // RST latency (termination crossing time)
  double energy = 0.0;           // RST source energy (Fig. 13a quantity)
  double set_energy = 0.0;       // preceding SET pulse energy
  bool terminated = false;
  std::size_t pulses = 1;        // >1 only for program-and-verify
};

// The MLC operating point, held once: the Monte-Carlo studies, the ECC
// channel and the memsys fidelity tiers sample their devices from its cell,
// stack and variability. Every read of the programmer is Table 1's READ
// (oxram::FastCell::read).
struct QlcConfig {
  LevelAllocation allocation;
  oxram::SetOperation set_op;      // the unconditional SET preceding each RST
  oxram::ResetOperation reset_op;  // template; iref is overridden per level
  array::TerminationBehavior termination;
  array::SenseAmpModel sense;
  oxram::OxramVariability variability;  // D2D device sampling and C2C during program()
  // Nominal cell + stack: the calibration programs this cell, and the read
  // references are placed through its real read path (the access-device drop
  // shifts every level's current, so references derived from bare V/R would
  // be biased by about one level).
  oxram::OxramParams nominal_cell;
  oxram::StackConfig stack;

  // The paper's calibrated MLC operating point: the ISO-dI allocation of
  // `bits` over 6-36 uA, its nominal resistances read off a `curve_points`
  // calibration of this config's cell. The RST plateau is stretched beyond
  // the standard 3.5 us so the deepest level (6 uA, ~4 us latency) always
  // terminates rather than timing out.
  static QlcConfig paper_default(std::size_t bits = 4, std::size_t curve_points = 25);
};

// Builds the nominal R(IrefR) calibration curve: programs the config's
// nominal cell in its stack (variability-free) with its SET and RESET, at
// `points` currents in [i_min, i_max].
CalibrationCurve build_calibration_curve(const QlcConfig& config, double i_min, double i_max,
                                         std::size_t points = 25);

class QlcProgrammer {
 public:
  explicit QlcProgrammer(QlcConfig config);

  const QlcConfig& config() const { return config_; }

  // SET + terminated RST to the target level: program_word on a word of one
  // cell. `rng` drives the mismatch and C2C sampling of this operation.
  ProgramOutcome program(oxram::FastCell& cell, std::size_t level, Rng& rng) const;

  // Word programming: the paper's word flow (§4.2) over N cells at once —
  // one whole-word SET batch, then one parallel RST batch in which each lane
  // terminates on its own per-level reference (oxram::CellBatch underneath).
  // Each cell's random draws come from its own `rngs` entry in a fixed order
  // (SET rate, effective IrefR, RST rate), and CellBatch lanes are
  // independent, so a cell's outcome is bitwise the one program() gives it
  // alone, whatever word it shares. Spans must have equal length; outcomes
  // are indexed like the inputs.
  std::vector<ProgramOutcome> program_word(std::span<oxram::FastCell* const> cells,
                                           std::span<const std::size_t> levels,
                                           std::span<Rng* const> rngs) const;

  // Read references (ascending currents, one between each pair of adjacent
  // levels) derived from the nominal level currents at VREAD. Computed from
  // the allocation's r_nominal values, so the allocation must carry a
  // calibration curve.
  const std::vector<double>& read_references() const { return read_references_; }

  // Full read: solve the read stack, compare against the reference bank,
  // return the decoded level value.
  std::size_t read_level(const oxram::FastCell& cell, Rng& rng) const;

 private:
  QlcConfig config_;
  std::vector<double> read_references_;
};

// ---------------------------------------------------------------------------
// Baselines (Table 4 comparison). Each takes its cell, stack, SET template
// and C2C variability from a QlcConfig; the VRST and program-and-verify
// baselines take its allocation and RESET template too.
// ---------------------------------------------------------------------------

// VRST-amplitude MLC (device-level prior art [8,12,39,40]): one fixed-width
// RST pulse whose amplitude is chosen per level from a nominal calibration;
// no feedback of any kind.
class VrstPulseBaseline {
 public:
  // Calibrates pulse amplitudes on the nominal cell so each level's nominal
  // resistance is hit, then programs with those fixed amplitudes.
  explicit VrstPulseBaseline(const QlcConfig& config);

  ProgramOutcome program(oxram::FastCell& cell, std::size_t level, Rng& rng) const;
  const std::vector<double>& amplitudes() const { return amplitudes_; }

 private:
  oxram::ResetOperation reset_template_;
  oxram::SetOperation set_template_;
  oxram::OxramVariability variability_;
  std::vector<double> amplitudes_;
};

// Program-and-verify MLC (the multi-step scheme the paper calls "energy and
// time inefficient", §2.1): repeat {short RST pulse; READ} until the cell
// lands within kVerifyBandTolerance of its target; a SET retry recovers
// overshoot. At most kVerifyMaxPulses pulses of kVerifySliceWidth each; every
// verify read costs kVerifyReadEnergy.
inline constexpr double kVerifyBandTolerance = 0.08;  // +/-8 % of target resistance
inline constexpr std::size_t kVerifyMaxPulses = 64;
inline constexpr double kVerifySliceWidth = 100e-9;   // s, one incremental RST slice
inline constexpr double kVerifyReadEnergy = 0.3e-12;  // J (~0.3 pJ)

class ProgramAndVerifyBaseline {
 public:
  explicit ProgramAndVerifyBaseline(const QlcConfig& config);

  ProgramOutcome program(oxram::FastCell& cell, std::size_t level, Rng& rng) const;

 private:
  LevelAllocation allocation_;
  oxram::ResetOperation reset_template_;
  oxram::SetOperation set_template_;
  oxram::OxramVariability variability_;
};

// IC-SET MLC (compliance-current-controlled LRS levels, prior art [11,13,17]):
// the word-line voltage sets the SET compliance, placing the LRS resistance.
// Limited to few levels; included to reproduce the Table 4 landscape.
class IcSetBaseline {
 public:
  IcSetBaseline(std::size_t levels, const QlcConfig& config);

  ProgramOutcome program(oxram::FastCell& cell, std::size_t level, Rng& rng) const;
  const std::vector<double>& wl_voltages() const { return wl_voltages_; }

 private:
  oxram::SetOperation set_template_;
  oxram::OxramVariability variability_;
  std::vector<double> wl_voltages_;
};

}  // namespace oxmlc::mlc
