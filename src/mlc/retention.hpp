// Retention sweep: the Monte-Carlo level study evaluated over time.
//
// One trial = one word of every level, each cell a D2D-sampled device
// programmed exactly as in run_level_study (sample_study_word), then evolved
// under the two-component drift law of oxram/drift.hpp and re-read at each
// observation time. The programmed word is copied: the verify-off branch
// observes it as programmed, the verify-on branch first runs the
// relaxation-aware verify of MemoryController/arXiv:2301.08516 on its copy
// (wait kVerifyWait, re-sense with one read-disturb event, re-terminate the
// cells whose decode left the target band, for at most verify_max_passes
// rounds: DriftingWord::relax_verify). Both branches thus start from the same
// as-programmed population, and the comparison measures how much of the
// drift-lost inter-level window the verify recovers
// (recovered_window_fraction — the acceptance metric of the reliability
// subsystem).
//
// DriftingWord is the word both this sweep and the ECC channel run: formed
// cells with their own rngs and targets, one oxram::DriftTrajectory each,
// and word-wide program, verify and reprogram calls.
//
// Determinism: every draw of a trial comes from its cells' rngs, which
// sample_study_word derives from (seed, level, trial) alone, so reports are
// bit-identical for any thread count — test-pinned.
//
// to_json() emits the `oxmlc.retention.v1` schema consumed by the CI
// retention smoke test and the BENCH_retention.json artifact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mlc/mc_study.hpp"
#include "mlc/program.hpp"
#include "obs/json.hpp"
#include "oxram/drift.hpp"

namespace oxmlc::mlc {

// A word of cells programmed together and then left to drift. Each cell
// keeps its own rng, and every random draw of a cell (program, amplitudes,
// sense noise) comes from it, in the order the calls reach that cell. Since
// program_word lanes are independent too, each cell ends bitwise where the
// same calls made one cell at a time would leave it. Times are seconds after
// the constructor's program event.
class DriftingWord {
 public:
  struct VerifyCounts {
    std::size_t reprogrammed = 0;  // cells re-terminated by the verify
    std::size_t unrecovered = 0;   // cells still out of band after the last pass
  };

  // Programs every cell to its target in one program_word, then anchors each
  // trajectory at t = 0. `programmer` must outlive the word; the three
  // vectors must have equal length.
  DriftingWord(const QlcProgrammer& programmer, const oxram::DriftParams& drift,
               std::vector<oxram::FastCell> cells, std::vector<Rng> rngs,
               std::vector<std::size_t> targets);

  std::size_t size() const { return cells_.size(); }
  const oxram::FastCell& cell(std::size_t i) const { return cells_[i]; }
  const Rng& rng(std::size_t i) const { return rngs_[i]; }
  // Outcomes of the constructor's program, indexed like the cells.
  const std::vector<ProgramOutcome>& outcomes() const { return outcomes_; }

  // Senses cell i at time t: bills one read disturb of the default
  // oxram::ReadDisturbModel through oxram::disturbed_gap, leaves the cell at
  // the disturbed gap and decodes it on the cell's rng.
  std::size_t sense(std::size_t i, double t);

  // Cell i's resistance at time t at the read point, without disturb.
  double resistance_at(std::size_t i, double t);

  // Re-terminates the listed (distinct) cells to their targets in one
  // program_word and re-anchors them at time t.
  void reprogram(std::span<const std::size_t> cells, double t);

  // Relaxation-aware verify from t = 0: every kVerifyWait, sense the cells
  // still in question and re-terminate the ones out of band, for at most
  // max_passes passes. The last pass only senses, so re-terminating takes
  // two passes at least; one pass is a re-sense with no verify.
  VerifyCounts relax_verify(std::size_t max_passes);

 private:
  const QlcProgrammer* programmer_;
  oxram::DriftParams drift_;
  std::vector<oxram::FastCell> cells_;
  std::vector<Rng> rngs_;
  std::vector<std::size_t> targets_;
  std::vector<oxram::DriftTrajectory> trajectories_;
  std::vector<ProgramOutcome> outcomes_;
};

// Words drift on the default oxram::DriftParams, and each verify re-sense
// bills the default oxram::ReadDisturbModel (the verify is not free).
struct RetentionConfig {
  McStudyConfig study;        // operating point (allocation, device), mc depth/seed
  std::vector<double> times;  // ascending observation times (s) after program
  std::size_t verify_max_passes = 2;  // DriftingWord::relax_verify passes

  // The paper study config plus a decade ladder 1 ms .. 10^7 s.
  static RetentionConfig paper_default(std::size_t bits = 4, std::size_t trials = 200);
};

struct RetentionPoint {
  double t = 0.0;                        // s after program
  MarginReport margins;
  BerReport ber;
  std::vector<LevelDistribution> levels; // drifted distributions at t
};

struct RetentionReport {
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t bits = 0;
  bool relax_verify = false;
  std::size_t verify_max_passes = 0;

  MarginReport initial_margins;  // as-programmed (t = 0), before any drift
  BerReport initial_ber;
  std::vector<RetentionPoint> points;     // one per time, ascending

  std::size_t verify_reprogrammed = 0;    // cells re-terminated by the verify
  std::size_t verify_unrecovered = 0;     // still out of band after last pass
};

// The verify-off and verify-on branches over the same programmed words, from
// one mc::run_trials pass.
struct RetentionComparison {
  RetentionReport verify_off;
  RetentionReport verify_on;
};

RetentionComparison run_retention_comparison(const RetentionConfig& config);

// Fraction of the drift-lost worst-case window the verify recovered at
// `point` (default: the last observation time):
//   (margin_on - margin_off) / (margin_initial - margin_off).
// Not clamped: it is 0 when the verify bought nothing, negative when the
// verify-on window ended narrower (it reads -5.7e-6 at `oxmlc_sim
// --retention --bits 1 --trials 1`), and above 1 when the verify-on window
// ends wider than the as-programmed one. When nothing was lost it is 1 if
// the verify-on window is no narrower, else 0.
double recovered_window_fraction(const RetentionComparison& comparison,
                                 std::size_t point);
double recovered_window_fraction(const RetentionComparison& comparison);

// `oxmlc.retention.v1` documents (single branch / comparison).
obs::Json to_json(const RetentionReport& report);
obs::Json to_json(const RetentionComparison& comparison);

}  // namespace oxmlc::mlc
