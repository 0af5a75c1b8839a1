#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "array/fast_array.hpp"
#include "array/mismatch.hpp"
#include "array/parasitics.hpp"
#include "array/sense_amp.hpp"
#include "array/termination.hpp"
#include "array/write_path.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "spice/dc.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace oxmlc::array {
namespace {

using spice::kGround;

// ---------------------------------------------------------------------------
// mismatch model
// ---------------------------------------------------------------------------

TEST(Mismatch, PelgromAreaScaling) {
  MismatchModel model;
  const auto small = dev::tech130hv::nmos(1e-6, 0.5e-6);
  const auto big = dev::tech130hv::nmos(4e-6, 2e-6);  // 16x the area
  EXPECT_NEAR(model.sigma_vth(small) / model.sigma_vth(big), 4.0, 1e-9);
  EXPECT_NEAR(model.sigma_beta_rel(small) / model.sigma_beta_rel(big), 4.0, 1e-9);
}

TEST(Mismatch, DisabledModelIsExact) {
  const MismatchModel model = MismatchModel::disabled();
  Rng rng(1);
  const auto p = dev::tech130hv::nmos(1e-6, 0.5e-6);
  const auto sampled = model.sample(p, rng);
  EXPECT_DOUBLE_EQ(sampled.vt0, p.vt0);
  EXPECT_DOUBLE_EQ(sampled.kp, p.kp);
  EXPECT_DOUBLE_EQ(model.mirror_current_sigma_rel(p, 10e-6), 0.0);
}

TEST(Mismatch, SampledMomentsMatch) {
  MismatchModel model;
  const auto p = dev::tech130hv::nmos(10e-6, 1e-6);
  Rng rng(5);
  RunningStats vth;
  for (int i = 0; i < 20000; ++i) vth.add(model.sample(p, rng).vt0);
  EXPECT_NEAR(vth.mean(), p.vt0, 1e-4);
  EXPECT_NEAR(vth.stddev(), model.sigma_vth(p), model.sigma_vth(p) * 0.05);
}

TEST(Mismatch, MirrorSigmaGrowsAtLowCurrent) {
  // The 1/sqrt(I) law behind Fig. 12: lower termination current = worse copy.
  MismatchModel model;
  const auto p = dev::tech130hv::nmos(120e-6, 3e-6);
  const double s36 = model.mirror_current_sigma_rel(p, 36e-6);
  const double s6 = model.mirror_current_sigma_rel(p, 6e-6);
  EXPECT_GT(s6, s36);
  EXPECT_NEAR(s6 / s36, std::sqrt(36.0 / 6.0), 0.3);
}

// ---------------------------------------------------------------------------
// parasitics
// ---------------------------------------------------------------------------

TEST(Parasitics, LadderDcResistanceIsTotal) {
  spice::Circuit c;
  const int in = c.node("in");
  c.add<dev::VoltageSource>("V", in, kGround, 1.0);
  LineParasitics line{1000.0, 1e-12, 8};
  const std::vector<int> ends = build_rc_line(c, "bl", in, line);
  ASSERT_EQ(ends.size(), 8u);
  const int far = ends.back();
  c.add<dev::Resistor>("Rload", far, kGround, 1000.0);
  spice::MnaSystem system(c);
  const auto result = spice::solve_dc(system);
  ASSERT_TRUE(result.converged);
  // Divider: 1000 ladder + 1000 load => far end at 0.5 V.
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(far)], 0.5, 1e-6);
}

TEST(Parasitics, ZeroSegmentsReturnsInput) {
  spice::Circuit c;
  const int in = c.node("in");
  EXPECT_EQ(build_rc_line(c, "x", in, LineParasitics::none()), std::vector<int>{in});
}

TEST(Parasitics, LumpedCapacitanceWhenNoResistance) {
  spice::Circuit c;
  const int in = c.node("in");
  LineParasitics line{0.0, 1e-12, 4};
  EXPECT_EQ(build_rc_line(c, "y", in, line), std::vector<int>(4, in));
  EXPECT_NE(c.find_device("y_clump"), nullptr);
}

TEST(Parasitics, PaperBitLineMatchesPaperNumbers) {
  const auto bl = LineParasitics::paper_bit_line();
  EXPECT_DOUBLE_EQ(bl.total_capacitance, 1e-12);  // "a 1 pF bit line capacitance"
  EXPECT_GT(bl.total_resistance, 500.0);
}

// The fast path lumps the write path's series resistance into one
// StackConfig::r_series; it must stand for the ladder WritePath builds (the
// SL driver plus the paper SL and BL totals, 868 Ohm against 870 Ohm).
TEST(Parasitics, FastPathSeriesResistanceMatchesLadderTotals) {
  const WritePathConfig ladder;
  const double total =
      ladder.r_driver + ladder.sl.total_resistance + ladder.bl.total_resistance;
  EXPECT_NEAR(oxram::StackConfig{}.r_series, total, 0.005 * total);
}

// ---------------------------------------------------------------------------
// termination circuit (transistor level, DC decision behaviour)
// ---------------------------------------------------------------------------

// Drives the termination input with a current source standing in for the cell
// and checks the comparator decision threshold sits at IrefR.
class TerminationDcTest : public ::testing::Test {
 protected:
  double comparator_output(double icell, double iref) {
    spice::Circuit c;
    const int vdd = c.node("vdd");
    const int bl = c.node("bl");
    c.add<dev::VoltageSource>("Vdd", vdd, kGround, 3.3);
    c.add<dev::CurrentSource>("Icell", vdd, bl, icell);
    const TerminationCircuit tc = build_termination_circuit(c, "t", bl, vdd, iref);
    spice::MnaSystem system(c);
    const auto result = spice::solve_dc(system);
    if (!result.converged) return -1.0;
    return result.solution[static_cast<std::size_t>(tc.out)];
  }
};

TEST_F(TerminationDcTest, OutHighWhileCellCurrentAboveReference) {
  // Icell well above IrefR: node A pulled low, inverter output high.
  EXPECT_GT(comparator_output(30e-6, 10e-6), 3.0);
}

TEST_F(TerminationDcTest, OutLowWhenCellCurrentBelowReference) {
  EXPECT_LT(comparator_output(4e-6, 10e-6), 0.3);
}

TEST_F(TerminationDcTest, DecisionThresholdNearIref) {
  // Sweep Icell through IrefR: the flip must happen within ~15 % of IrefR.
  const double iref = 10e-6;
  double flip_current = -1.0;
  double prev = comparator_output(20e-6, iref);
  for (double icell = 20e-6; icell >= 5e-6; icell -= 0.25e-6) {
    const double out = comparator_output(icell, iref);
    if (prev > 1.65 && out <= 1.65) {
      flip_current = icell;
      break;
    }
    prev = out;
  }
  ASSERT_GT(flip_current, 0.0) << "comparator never flipped";
  EXPECT_NEAR(flip_current, iref, 0.15 * iref);
}

TEST_F(TerminationDcTest, ThresholdTracksProgrammedIref) {
  // The same sweep at a different IrefR must flip near the new value.
  for (double iref : {6e-6, 20e-6, 36e-6}) {
    double flip_current = -1.0;
    double prev = comparator_output(2.0 * iref, iref);
    for (double icell = 2.0 * iref; icell >= 0.25 * iref; icell -= 0.02 * iref) {
      const double out = comparator_output(icell, iref);
      if (prev > 1.65 && out <= 1.65) {
        flip_current = icell;
        break;
      }
      prev = out;
    }
    ASSERT_GT(flip_current, 0.0);
    EXPECT_NEAR(flip_current, iref, 0.2 * iref);
  }
}

TEST(TerminationBehaviorModel, SigmaGrowsAsCurrentFalls) {
  TerminationBehavior behavior;
  const double s36 = behavior.iref_sigma_rel(36e-6);
  const double s6 = behavior.iref_sigma_rel(6e-6);
  EXPECT_GT(s6, s36);
  EXPECT_LT(s36, 0.02);  // large mirrors: sub-2 % at the top current
}

TEST(TerminationBehaviorModel, SampleIsUnbiasedAndBounded) {
  TerminationBehavior behavior;
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double sample = behavior.sample_effective_iref(10e-6, rng);
    EXPECT_GT(sample, 5e-6);
    EXPECT_LT(sample, 20e-6);
    stats.add(sample);
  }
  EXPECT_NEAR(stats.mean(), 10e-6, 0.01e-6);
  EXPECT_NEAR(stats.stddev() / 10e-6, behavior.iref_sigma_rel(10e-6), 0.002);
}

// ---------------------------------------------------------------------------
// sense amplifier
// ---------------------------------------------------------------------------

TEST(SenseAmp, IdealDecodeCountsReferences) {
  const std::vector<double> refs = {1e-6, 2e-6, 3e-6};
  Rng rng(1);
  const auto ideal = SenseAmpModel::ideal();
  EXPECT_EQ(decode_band(0.5e-6, refs, ideal, rng), 0u);
  EXPECT_EQ(decode_band(1.5e-6, refs, ideal, rng), 1u);
  EXPECT_EQ(decode_band(2.5e-6, refs, ideal, rng), 2u);
  EXPECT_EQ(decode_band(9.0e-6, refs, ideal, rng), 3u);
}

TEST(SenseAmp, OffsetCausesErrorsOnlyNearReference) {
  SenseAmpModel model;
  model.offset_sigma = 0.05e-6;
  const std::vector<double> refs = {2e-6};
  Rng rng(7);
  // Far from the reference: decisions never flip.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(decode_band(1e-6, refs, model, rng), 0u);
    EXPECT_EQ(decode_band(3e-6, refs, model, rng), 1u);
  }
  // Exactly on the reference: ~50/50.
  int high = 0;
  for (int i = 0; i < 2000; ++i) high += decode_band(2e-6, refs, model, rng) == 1u;
  EXPECT_GT(high, 700);
  EXPECT_LT(high, 1300);
}

// ---------------------------------------------------------------------------
// write path (transistor-level): covered in depth by integration_test; here
// the standard-vs-terminated contrast only.
// ---------------------------------------------------------------------------

TEST(WritePath, StandardPulseOvershootsTerminatedPulseBounds) {
  WritePathConfig terminated;
  terminated.iref = 10e-6;
  terminated.pulse_width = 6e-6;
  terminated.t_stop = 4e-6;
  WritePath path_terminated(terminated);
  const auto result_terminated = path_terminated.run();
  ASSERT_TRUE(result_terminated.terminated);
  EXPECT_LT(result_terminated.final_resistance, 300e3);

  WritePathConfig standard = terminated;
  standard.iref.reset();
  standard.pulse_width = 3.5e-6;
  WritePath path_standard(standard);
  const auto result_standard = path_standard.run();
  EXPECT_FALSE(result_standard.terminated);
  // Fig. 10: the standard pulse drives the cell orders of magnitude deeper.
  EXPECT_GT(result_standard.final_resistance, 20.0 * result_terminated.final_resistance);
}

// The Jacobian pattern of the QLC write-path circuit is fixed across Newton
// iterates, so the numeric-only refactorize must reproduce full-factorize
// solutions on this exact hot-path matrix.
TEST(WritePath, RefactorizeMatchesFactorizeOnWritePathJacobian) {
  WritePathConfig config;
  config.iref = 10e-6;
  WritePath path(config);
  spice::MnaSystem system(path.circuit());
  const std::size_t n = system.dimension();

  const auto assemble_at = [&](const std::vector<double>& x) {
    num::TripletMatrix jacobian(n);
    std::vector<double> residual(n, 0.0);
    jacobian.clear();
    system.assemble(x, &jacobian, residual);
    return num::CsrMatrix::from_triplets(jacobian);
  };

  // Two operating points: the flat start and a perturbed iterate (different
  // device conductances, same topology → same pattern).
  std::vector<double> x0(n, 0.0);
  std::vector<double> x1(n, 0.0);
  Rng rng(2024);
  for (auto& v : x1) v = 0.1 * rng.normal(0.0, 1.0);

  const num::CsrMatrix a0 = assemble_at(x0);
  const num::CsrMatrix a1 = assemble_at(x1);

  num::SparseLu lu;
  lu.factorize(a0);
  ASSERT_TRUE(lu.refactorize(a1)) << "write-path Jacobian pattern changed";

  std::vector<double> b(n), x_refact(n), x_full(n);
  for (auto& v : b) v = rng.normal(0.0, 1.0);
  lu.solve(b, x_refact);

  num::SparseLu fresh;
  fresh.factorize(a1);
  fresh.solve(b, x_full);

  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::max(1.0, std::fabs(x_full[i]));
    EXPECT_NEAR(x_refact[i], x_full[i], 1e-6 * scale) << "component " << i;
  }
}

// ---------------------------------------------------------------------------
// fast array
// ---------------------------------------------------------------------------

TEST(FastArray, DimensionsAndDeterminism) {
  const oxram::OxramParams nominal;
  FastArray a(8, 8, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 77);
  FastArray b(8, 8, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 77);
  EXPECT_EQ(a.size(), 64u);
  // Same seed => identical per-cell device parameters.
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_DOUBLE_EQ(a.at(r, c).params().alpha, b.at(r, c).params().alpha);
    }
  }
  EXPECT_THROW(a.at(8, 0), oxmlc::InvalidArgumentError);
}

TEST(FastArray, CellsAreDistinctUnderVariability) {
  const oxram::OxramParams nominal;
  FastArray array(4, 4, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 3);
  RunningStats alphas;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) alphas.add(array.at(r, c).params().alpha);
  }
  EXPECT_GT(alphas.stddev(), 0.0);
}

TEST(FastArray, FormAllMakesEveryCellConductive) {
  const oxram::OxramParams nominal;
  FastArray array(4, 4, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 11);
  array.form_all();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_FALSE(array.at(r, c).virgin());
      EXPECT_LT(array.at(r, c).read().r_cell, 50e3);
    }
  }
}

TEST(FastArray, RefreshCycleRateVaries) {
  const oxram::OxramParams nominal;
  FastArray array(2, 2, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 5);
  RunningStats factors;
  for (int i = 0; i < 200; ++i) factors.add(array.refresh_cycle_rate(0, 0));
  EXPECT_GT(factors.stddev(), 0.02);
  EXPECT_NEAR(factors.mean(), 1.0, 0.05);
}

TEST(FastArray, OutOfRangeAccessReportsIndexAndDims) {
  const oxram::OxramParams nominal;
  FastArray array(4, 2, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 21);
  EXPECT_THROW(array.at(4, 0), oxmlc::InvalidArgumentError);
  EXPECT_THROW(array.at(0, 2), oxmlc::InvalidArgumentError);
  EXPECT_THROW(array.rng_at(4, 2), oxmlc::InvalidArgumentError);
  EXPECT_THROW(std::as_const(array).at(9, 9), oxmlc::InvalidArgumentError);
  try {
    array.at(4, 1);
    FAIL() << "expected InvalidArgumentError";
  } catch (const oxmlc::InvalidArgumentError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("(4, 1)"), std::string::npos) << what;
    EXPECT_NE(what.find("4x2"), std::string::npos) << what;
  }
}

// The batched form_all must leave every cell in the same state — to
// stack-solver tolerance — as the scalar refresh+apply loop it replaces,
// including the per-cell rng consumption.
TEST(FastArray, BatchedWordProgrammingMatchesScalarLoop) {
  const oxram::OxramParams nominal;
  const oxram::OxramVariability variability;
  const oxram::StackConfig stack;
  FastArray batched(2, 8, nominal, variability, stack, 99);
  FastArray scalar(2, 8, nominal, variability, stack, 99);

  const auto rel = [](double a, double b) {
    return std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), 1e-300});
  };

  batched.form_all();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      scalar.refresh_cycle_rate(r, c);
      scalar.at(r, c).apply_set(oxram::kForming);
    }
  }
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_LT(rel(batched.at(r, c).gap(), scalar.at(r, c).gap()), 1e-9);
      EXPECT_EQ(batched.rng_at(r, c).uniform(), scalar.rng_at(r, c).uniform());
    }
  }
}

}  // namespace
}  // namespace oxmlc::array
