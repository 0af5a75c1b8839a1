// Cross-module integration tests: the transistor-level SPICE path against the
// fast behavioral path, the paper's headline numbers, and full word-level
// store/recall flows.
#include <gtest/gtest.h>

#include <cmath>

#include "array/fast_array.hpp"
#include "array/write_path.hpp"
#include "mlc/mc_study.hpp"
#include "mlc/program.hpp"
#include "util/stats.hpp"

namespace oxmlc {
namespace {

// ---------------------------------------------------------------------------
// SPICE vs fast path cross-validation
// ---------------------------------------------------------------------------

struct PathComparison {
  double r_spice = 0.0;
  double r_fast = 0.0;
  double t_spice = 0.0;
  double t_fast = 0.0;
};

PathComparison compare_paths(double iref) {
  PathComparison cmp;
  {
    array::WritePathConfig config;
    config.iref = iref;
    config.pulse_width = 8e-6;
    config.t_stop = 6e-6;
    array::WritePath path(config);
    const auto result = path.run();
    EXPECT_TRUE(result.terminated) << "SPICE path did not terminate at " << iref;
    cmp.r_spice = result.final_resistance;
    cmp.t_spice = result.t_terminate;
  }
  {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    cell.apply_set(oxram::SetOperation{});
    oxram::ResetOperation op;
    op.iref = iref;
    op.pulse.width = 8e-6;
    const auto result = cell.apply_reset(op);
    EXPECT_TRUE(result.terminated);
    cmp.r_fast = cell.read().r_cell;
    cmp.t_fast = result.t_terminate;
  }
  return cmp;
}

TEST(SpiceVsFast, TerminatedResistanceAgreesWithinFifteenPercent) {
  for (double iref : {10e-6, 20e-6, 32e-6}) {
    const PathComparison cmp = compare_paths(iref);
    EXPECT_NEAR(cmp.r_fast / cmp.r_spice, 1.0, 0.15)
        << "iref=" << iref << " spice=" << cmp.r_spice << " fast=" << cmp.r_fast;
  }
}

TEST(SpiceVsFast, LatencyAgreesWithinFactor) {
  const PathComparison cmp = compare_paths(10e-6);
  EXPECT_GT(cmp.t_spice / cmp.t_fast, 0.5);
  EXPECT_LT(cmp.t_spice / cmp.t_fast, 2.0);
}

// ---------------------------------------------------------------------------
// Fig. 10 headline numbers on the full transistor-level circuit
// ---------------------------------------------------------------------------

TEST(Fig10Circuit, TerminatedResetAt10uAMatchesPaperShape) {
  array::WritePathConfig config;
  config.iref = 10e-6;
  config.pulse_width = 8e-6;
  config.t_stop = 6e-6;
  array::WritePath path(config);
  const auto result = path.run();

  ASSERT_TRUE(result.terminated);
  // Paper: 152 kOhm, 2.6 us. Bands: our calibration places these within
  // +/-30 % (EXPERIMENTS.md records the exact values).
  EXPECT_GT(result.final_resistance, 100e3);
  EXPECT_LT(result.final_resistance, 220e3);
  EXPECT_GT(result.t_terminate, 1.5e-6);
  EXPECT_LT(result.t_terminate, 4.0e-6);

  // The cell current decayed monotonically toward IrefR before termination.
  const auto& icell = result.transient.probe_values[array::WritePathResult::kProbeIcell];
  double peak = 0.0;
  for (double i : icell) peak = std::max(peak, i);
  EXPECT_GT(peak, 30e-6);

  // Comparator output was high during the pulse and low after termination.
  const auto& vout = result.transient.probe_values[array::WritePathResult::kProbeVout];
  const auto& t = result.transient.times;
  bool saw_high = false;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k] > 0.2e-6 && t[k] < result.t_terminate - 0.2e-6) {
      saw_high = saw_high || vout[k] > 3.0;
    }
  }
  EXPECT_TRUE(saw_high);
  EXPECT_LT(vout.back(), 0.5);
}

TEST(Fig10Circuit, StandardPulseSaturatesDeepHrs) {
  array::WritePathConfig config;  // no iref: standard 3.5 us pulse
  config.pulse_width = 3.5e-6;
  config.t_stop = 3.7e-6;
  array::WritePath path(config);
  const auto result = path.run();
  EXPECT_FALSE(result.terminated);
  // Paper: ~382 MOhm; we require the same order-of-magnitude blowout.
  EXPECT_GT(result.final_resistance, 10e6);
}

// ---------------------------------------------------------------------------
// termination-circuit mismatch propagates in the full circuit
// ---------------------------------------------------------------------------

TEST(Fig10Circuit, MismatchShiftsTerminatedResistance) {
  RunningStats stats;
  Rng rng(99);
  const array::MismatchModel mismatch;
  for (int trial = 0; trial < 5; ++trial) {
    array::WritePathConfig config;
    config.iref = 20e-6;
    config.pulse_width = 8e-6;
    config.t_stop = 3e-6;
    array::WritePath path(config);
    path.apply_mismatch(mismatch, rng);
    const auto result = path.run();
    ASSERT_TRUE(result.terminated);
    stats.add(result.final_resistance);
  }
  EXPECT_GT(stats.stddev(), 0.0);
  EXPECT_LT(stats.stddev() / stats.mean(), 0.05);  // but small: mirrors are large
}

// ---------------------------------------------------------------------------
// QLC word-level store / recall on an 8x8 array (the paper's test array)
// ---------------------------------------------------------------------------

TEST(QlcWord, StoreAndRecallPatternOn8x8Array) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 13);
  const mlc::QlcProgrammer programmer(config);

  array::FastArray memory(8, 8, config.nominal_cell, config.variability, config.stack, 12345);
  memory.form_all();

  // Store a deterministic 4-bit pattern in every cell (8 cells per word x 8
  // words = 32 bytes of QLC payload).
  Rng rng(777);
  std::vector<std::size_t> written;
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      const std::size_t level = (r * 8 + c * 3) % 16;
      written.push_back(level);
      programmer.program(memory.at(r, c), level, memory.rng_at(r, c));
    }
  }
  // Recall and compare.
  std::size_t errors = 0;
  std::size_t k = 0;
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c, ++k) {
      errors += programmer.read_level(memory.at(r, c), rng) != written[k];
    }
  }
  EXPECT_EQ(errors, 0u);
}

TEST(QlcWord, RewriteChangesStoredLevel) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 13);
  const mlc::QlcProgrammer programmer(config);
  oxram::FastCell cell = oxram::FastCell::formed_lrs(config.nominal_cell, config.stack);
  Rng rng(31);
  programmer.program(cell, 15, rng);
  EXPECT_EQ(programmer.read_level(cell, rng), 15u);
  // Rewriting to a shallower level must work (SET-first erases history).
  programmer.program(cell, 2, rng);
  EXPECT_EQ(programmer.read_level(cell, rng), 2u);
  programmer.program(cell, 9, rng);
  EXPECT_EQ(programmer.read_level(cell, rng), 9u);
}

// ---------------------------------------------------------------------------
// Fig. 3-style cycling endurance of distributions
// ---------------------------------------------------------------------------

TEST(Cycling, HrsLrsDistributionsStaySeparatedOver50Cycles) {
  array::FastArray memory(4, 4, oxram::OxramParams{}, oxram::OxramVariability{},
                          oxram::StackConfig{}, 555);
  memory.form_all();

  // Characterization pulses: Table 1 cell-level RST; the SET is stretched and
  // slightly boosted so every device completes the transition (a parameter
  // analyzer confirms the SET before extracting RLRS).
  oxram::ResetOperation rst;
  rst.pulse.amplitude = 1.2;
  rst.pulse.width = 1e-6;
  rst.v_wl = 2.5;
  oxram::SetOperation set;
  set.pulse.amplitude = 1.25;
  set.pulse.width = 300e-9;

  std::vector<double> r_hrs, r_lrs;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        memory.refresh_cycle_rate(r, c);
        memory.at(r, c).apply_reset(rst);
        r_hrs.push_back(memory.at(r, c).read().r_cell);
        memory.refresh_cycle_rate(r, c);
        memory.at(r, c).apply_set(set);
        r_lrs.push_back(memory.at(r, c).read().r_cell);
      }
    }
  }
  const auto hrs = box_plot_summary(r_hrs);
  const auto lrs = box_plot_summary(r_lrs);
  // Fig. 3's qualitative content: LRS ~ 1e4, HRS ~ a few 1e5, HRS spread
  // wider than LRS spread, distributions disjoint.
  EXPECT_LT(lrs.median, 30e3);
  EXPECT_GT(hrs.median, 80e3);
  EXPECT_GT(hrs.q3 / hrs.q1, lrs.q3 / lrs.q1);  // HRS spread dominates
  EXPECT_GT(hrs.minimum, lrs.maximum);          // window never closes
}

// ---------------------------------------------------------------------------
// end-to-end margin sanity at reduced depth (full study runs in the bench)
// ---------------------------------------------------------------------------

TEST(Margins, FourBitStudyHasNoOverlapAt40Trials) {
  auto config = mlc::paper_mc_study(4, 40);
  const auto dists = mlc::run_level_study(config);
  const auto report = mlc::analyze_margins(dists);
  EXPECT_FALSE(report.any_overlap);
  EXPECT_GT(report.worst_case_margin, 0.0);
  // Margins grow toward deep HRS (Fig. 12's trend).
  EXPECT_GT(report.margins.back().nominal_spacing, report.margins.front().nominal_spacing);
}

}  // namespace
}  // namespace oxmlc
