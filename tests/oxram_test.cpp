#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "devices/sources.hpp"
#include "oxram/device.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/model.hpp"
#include "oxram/reference_pulse.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace oxmlc::oxram {
namespace {

// ---------------------------------------------------------------------------
// conduction law
// ---------------------------------------------------------------------------

TEST(OxramModel, CurrentIsOddInVoltage) {
  const OxramParams p;
  for (double g : {p.g_min, 1e-9, p.g_max}) {
    for (double v : {0.1, 0.5, 1.2}) {
      EXPECT_NEAR(cell_current(p, v, g), -cell_current(p, -v, g), 1e-18);
    }
  }
  EXPECT_DOUBLE_EQ(cell_current(OxramParams{}, 0.0, 1e-9), 0.0);
}

TEST(OxramModel, CurrentMonotoneInVoltageAndGap) {
  const OxramParams p;
  double prev = 0.0;
  for (double v = 0.05; v <= 1.5; v += 0.05) {
    const double i = cell_current(p, v, 1e-9);
    EXPECT_GT(i, prev);
    prev = i;
  }
  // Deeper gap => less current at fixed voltage.
  prev = cell_current(p, 0.3, p.g_min);
  for (double g = p.g_min + 0.2e-9; g <= p.g_max; g += 0.2e-9) {
    const double i = cell_current(p, 0.3, g);
    EXPECT_LT(i, prev);
    prev = i;
  }
}

TEST(OxramModel, ConductanceMatchesFiniteDifference) {
  const OxramParams p;
  for (double g : {p.g_min, 0.9e-9, 2.0e-9}) {
    for (double v : {0.05, 0.3, 0.9}) {
      const double dv = 1e-7;
      const double fd = (cell_current(p, v + dv, g) - cell_current(p, v - dv, g)) / (2 * dv);
      EXPECT_NEAR(cell_conductance(p, v, g), fd, std::fabs(fd) * 1e-5);
    }
  }
}

TEST(OxramModel, ResistanceSpansPaperWindow) {
  const OxramParams p;
  // The LRS floor and the saturated HRS must bracket the paper's numbers:
  // LRS ~ 10 kOhm, MLC window 38-267 kOhm, saturated HRS ~ 1e8 Ohm.
  const double r_lrs = resistance_at(p, 0.3, p.g_min);
  const double r_sat = resistance_at(p, 0.3, p.g_max);
  EXPECT_GT(r_lrs, 5e3);
  EXPECT_LT(r_lrs, 25e3);
  EXPECT_GT(r_sat, 50e6);
  // The whole Table 2 window must be representable.
  EXPECT_NO_THROW(gap_for_resistance(p, 0.3, 38.17e3));
  EXPECT_NO_THROW(gap_for_resistance(p, 0.3, 267e3));
}

TEST(OxramModel, GapForResistanceRoundTrips) {
  const OxramParams p;
  for (double r : {40e3, 100e3, 267e3, 1e6}) {
    const double g = gap_for_resistance(p, 0.3, r);
    EXPECT_NEAR(resistance_at(p, 0.3, g), r, r * 1e-6);
  }
  EXPECT_THROW(gap_for_resistance(p, 0.3, 1.0), InvalidArgumentError);
}

TEST(OxramModel, VoltageForCurrentInvertsConduction) {
  const OxramParams p;
  for (double g : {p.g_min, 1e-9, 2e-9}) {
    for (double i : {1e-6, 10e-6, 100e-6}) {
      if (cell_current(p, 5.0, g) < i) continue;
      const double v = voltage_for_current(p, i, g);
      EXPECT_NEAR(cell_current(p, v, g), i, i * 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// switching dynamics
// ---------------------------------------------------------------------------

TEST(OxramModel, PolaritySignsAreCorrect) {
  const OxramParams p;
  const double g = 1e-9;
  // RESET polarity (V < 0): gap grows.
  EXPECT_GT(gap_rate(p, -1.0, g, false), 0.0);
  // SET polarity (V > 0): gap shrinks.
  EXPECT_LT(gap_rate(p, 1.2, g, false), 0.0);
  // Read voltage: drift per 100 ns read must stay far below one level
  // (one level is ~0.1 nm of gap motion).
  EXPECT_LT(std::fabs(gap_rate(p, 0.3, g, false)) * 100e-9, 0.01e-9);
  EXPECT_LT(std::fabs(gap_rate(p, -0.3, g, false)) * 100e-9, 0.01e-9);
}

TEST(OxramModel, ResetIsSelfLimiting) {
  // The field-limited driving force must decay as the gap deepens: negative
  // feedback (paper §3.2).
  const OxramParams p;
  const double shallow = gap_rate(p, -1.0, 0.5e-9, false);
  const double deep = gap_rate(p, -1.0, 2.0e-9, false);
  EXPECT_GT(shallow, deep);
  EXPECT_GT(deep, 0.0);
}

TEST(OxramModel, VirginBarrierBlocksSetButNotForming) {
  const OxramParams p;
  // At SET bias a virgin device must move orders of magnitude slower.
  const double virgin_rate = std::fabs(gap_rate(p, 1.1, p.g_virgin, true));
  const double formed_rate = std::fabs(gap_rate(p, 1.1, p.g_virgin, false));
  EXPECT_LT(virgin_rate, formed_rate * 1e-4);
  // At forming bias (about 2.5 V across the cell) the virgin device moves fast.
  EXPECT_GT(std::fabs(gap_rate(p, 2.5, p.g_virgin, true)), 1e-3);
}

TEST(OxramModel, RateFactorScalesLinearly) {
  const OxramParams p;
  const double base = gap_rate(p, -1.0, 1e-9, false, 1.0);
  EXPECT_NEAR(gap_rate(p, -1.0, 1e-9, false, 2.0), 2.0 * base, std::fabs(base) * 1e-9);
}

TEST(OxramModel, AdvanceGapRespectsBounds) {
  const OxramParams p;
  // Long RESET saturates at g_max.
  const double g_end = advance_gap(p, -1.5, p.g_min, false, 1.0);
  EXPECT_LE(g_end, p.g_max * (1.0 + 1e-12));
  EXPECT_GT(g_end, 0.9 * p.g_max);
  // Long SET floors at g_min.
  const double g_set = advance_gap(p, 1.3, p.g_max, false, 1.0);
  EXPECT_GE(g_set, p.g_min * (1.0 - 1e-12));
  EXPECT_LT(g_set, 1.5 * p.g_min);
}

TEST(OxramModel, AdvanceGapConsistentAcrossSplitting) {
  // advance(dt) == advance(dt/2) twice (within sub-stepping tolerance).
  const OxramParams p;
  const double v = -0.9;
  const double whole = advance_gap(p, v, 0.5e-9, false, 2e-7);
  double halves = advance_gap(p, v, 0.5e-9, false, 1e-7);
  halves = advance_gap(p, v, halves, false, 1e-7);
  EXPECT_NEAR(whole, halves, 1e-13);
}

TEST(OxramModel, JouleHeatingAcceleratesSwitching) {
  OxramParams hot;
  OxramParams cold = hot;
  cold.r_th = 0.0;
  // Same bias: the self-heated device switches faster.
  const double rate_hot = gap_rate(hot, -1.2, 0.5e-9, false);
  const double rate_cold = gap_rate(cold, -1.2, 0.5e-9, false);
  EXPECT_GT(rate_hot, rate_cold);
}

TEST(OxramModel, RecommendedDtBoundsGapMotion) {
  const OxramParams p;
  const double v = -1.0, g = 0.5e-9;
  const double dt = recommended_dt(p, v, g, false, 1.0, 0.1);
  const double moved = std::fabs(advance_gap(p, v, g, false, dt) - g);
  EXPECT_LE(moved, 0.15 * p.g0);  // some slack for rate growth within the step
}

// ---------------------------------------------------------------------------
// variability sampling
// ---------------------------------------------------------------------------

TEST(OxramVariabilitySampling, DisabledIsIdentity) {
  const OxramParams nominal;
  Rng rng(1);
  const OxramParams sampled = sample_device(nominal, OxramVariability::disabled(), rng);
  EXPECT_DOUBLE_EQ(sampled.alpha, nominal.alpha);
  EXPECT_DOUBLE_EQ(sampled.lx, nominal.lx);
  EXPECT_DOUBLE_EQ(sampled.xi, nominal.xi);
  EXPECT_DOUBLE_EQ(sample_cycle_rate_factor(OxramVariability::disabled(), rng), 1.0);
}

TEST(OxramVariabilitySampling, MatchesPaperSigmas) {
  const OxramParams nominal;
  const OxramVariability var;  // defaults: 5 % / 5 %
  Rng rng(42);
  RunningStats alpha_stats, lx_stats;
  for (int i = 0; i < 20000; ++i) {
    const OxramParams s = sample_device(nominal, var, rng);
    alpha_stats.add(s.alpha);
    lx_stats.add(s.lx);
  }
  EXPECT_NEAR(alpha_stats.mean(), nominal.alpha, 0.01 * nominal.alpha);
  EXPECT_NEAR(alpha_stats.stddev(), 0.05 * nominal.alpha, 0.003 * nominal.alpha);
  EXPECT_NEAR(lx_stats.stddev(), 0.05 * nominal.lx, 0.003 * nominal.lx);
}

TEST(OxramVariabilitySampling, ConductionLawStaysNominal) {
  // The termination scheme's robustness hinges on this: D2D variation moves
  // the dynamics, never the I(V, g) mapping.
  const OxramParams nominal;
  Rng rng(3);
  const OxramParams s = sample_device(nominal, OxramVariability{}, rng);
  EXPECT_DOUBLE_EQ(s.i0, nominal.i0);
  EXPECT_DOUBLE_EQ(s.g0, nominal.g0);
  EXPECT_DOUBLE_EQ(s.v0, nominal.v0);
}

// ---------------------------------------------------------------------------
// fast cell operations
// ---------------------------------------------------------------------------

TEST(FastCell, FormingTakesVirginToLrs) {
  const OxramParams p;
  const StackConfig stack;
  FastCell cell(p, stack, p.g_virgin, /*virgin=*/true);
  EXPECT_TRUE(cell.virgin());
  cell.apply_set(kForming);
  EXPECT_FALSE(cell.virgin());
  EXPECT_LT(cell.read().r_cell, 30e3);  // conductive after FMG
}

TEST(FastCell, SetPulseIsIneffectiveOnVirginDevice) {
  const OxramParams p;
  const StackConfig stack;
  FastCell cell(p, stack, p.g_virgin, /*virgin=*/true);
  cell.apply_set(SetOperation{});
  EXPECT_TRUE(cell.virgin());  // 1.2 V cannot form
  EXPECT_GT(cell.read().r_cell, 10e6);
}

TEST(FastCell, SetResetCycleSwitchesStates) {
  FastCell cell = FastCell::formed_lrs(OxramParams{}, StackConfig{});
  cell.apply_set(SetOperation{});
  const double r_lrs = cell.read().r_cell;
  EXPECT_LT(r_lrs, 30e3);
  const auto reset = cell.apply_reset(ResetOperation{});  // standard pulse
  EXPECT_FALSE(reset.terminated);
  const double r_hrs = cell.read().r_cell;
  EXPECT_GT(r_hrs / r_lrs, 100.0);  // far beyond the MLC window
  cell.apply_set(SetOperation{});
  EXPECT_LT(cell.read().r_cell, 30e3);  // recoverable
}

TEST(FastCell, TerminatedResetBoundsResistance) {
  FastCell cell = FastCell::formed_lrs(OxramParams{}, StackConfig{});
  cell.apply_set(SetOperation{});
  ResetOperation op;
  op.iref = 10e-6;
  op.pulse.width = 8e-6;
  const auto result = cell.apply_reset(op);
  ASSERT_TRUE(result.terminated);
  // Fig. 10: IrefR = 10 uA limits the cell near 152 kOhm instead of the
  // standard pulse's ~1e8 Ohm.
  const double r = cell.read().r_cell;
  EXPECT_GT(r, 100e3);
  EXPECT_LT(r, 250e3);
  EXPECT_GT(result.t_terminate, 0.5e-6);
  EXPECT_LT(result.t_terminate, 4e-6);
}

TEST(FastCell, TerminationMonotoneInIref) {
  double prev_r = 0.0, prev_latency = 1e9;
  for (double iref_ua : {6.0, 12.0, 20.0, 28.0, 36.0}) {
    FastCell cell = FastCell::formed_lrs(OxramParams{}, StackConfig{});
    cell.apply_set(SetOperation{});
    ResetOperation op;
    op.iref = iref_ua * 1e-6;
    op.pulse.width = 8e-6;
    const auto result = cell.apply_reset(op);
    ASSERT_TRUE(result.terminated) << iref_ua;
    const double r = cell.read().r_cell;
    if (prev_r > 0.0) {
      EXPECT_LT(r, prev_r);                       // higher iref => shallower HRS
      EXPECT_LT(result.t_terminate, prev_latency);  // and faster
    }
    prev_r = r;
    prev_latency = result.t_terminate;
  }
}

TEST(FastCell, AlreadyDeepCellTerminatesImmediately) {
  // A cell already beyond the target: the comparator sees I < IrefR at the
  // plateau and stops at once.
  const OxramParams p;
  FastCell cell(p, StackConfig{}, 2.5e-9, false);
  ResetOperation op;
  op.iref = 20e-6;
  const auto result = cell.apply_reset(op);
  ASSERT_TRUE(result.terminated);
  EXPECT_LT(result.t_terminate, 0.1e-6);
}

TEST(FastCell, EnergyAndLatencyArePhysical) {
  FastCell cell = FastCell::formed_lrs(OxramParams{}, StackConfig{});
  const auto set = cell.apply_set(SetOperation{});
  EXPECT_GT(set.energy_source, 0.0);
  EXPECT_GE(set.energy_source, set.energy_cell);  // source supplies all drops
  ResetOperation op;
  op.iref = 14e-6;
  op.pulse.width = 8e-6;
  const auto reset = cell.apply_reset(op);
  EXPECT_GT(reset.energy_source, 0.0);
  EXPECT_GE(reset.energy_source, reset.energy_cell);
  EXPECT_LE(reset.t_terminate, reset.t_end);
}

TEST(FastCell, TrajectoryIsRecordedAndCurrentDecays) {
  FastCell cell = FastCell::formed_lrs(OxramParams{}, StackConfig{});
  cell.apply_set(SetOperation{});
  ResetOperation op;
  op.iref = 10e-6;
  op.pulse.width = 8e-6;
  std::vector<TrajectoryPoint> trajectory;
  reference_pulse(cell, op, &trajectory);
  ASSERT_GT(trajectory.size(), 50u);
  // Current on the plateau decays monotonically (within solver noise).
  double peak = 0.0;
  for (const auto& pt : trajectory) peak = std::max(peak, pt.current);
  EXPECT_GT(peak, 30e-6);
  EXPECT_NEAR(trajectory.back().current, 10e-6, 3e-6);
}

TEST(FastCell, ReadIsNonDestructive) {
  FastCell cell = FastCell::formed_lrs(OxramParams{}, StackConfig{});
  cell.apply_set(SetOperation{});
  ResetOperation op;
  op.iref = 12e-6;
  op.pulse.width = 8e-6;
  cell.apply_reset(op);
  const double gap_before = cell.gap();
  for (int i = 0; i < 100; ++i) cell.read();
  EXPECT_DOUBLE_EQ(cell.gap(), gap_before);
}

TEST(FastCell, StackSolveBalancesKvl) {
  const OxramParams p;
  const StackConfig stack;
  const double g = 1e-9;
  StackConfig with_mirror = stack;
  with_mirror.bl_through_mirror = true;
  const auto op = solve_stack(p, g, with_mirror, Polarity::kReset, 1.55, 3.3);
  ASSERT_GT(op.current, 0.0);
  // KVL: drive = I*Rs + Vaccess + Vcell + Vsink.
  const double total = op.current * stack.r_series + op.v_access + op.v_cell + op.v_sink;
  EXPECT_NEAR(total, 1.55, 0.02);
  // The cell current at the solved voltage matches the stack current.
  EXPECT_NEAR(cell_current(p, op.v_cell, g), op.current, op.current * 1e-6);
}

TEST(FastCell, NoDriveNoCurrent) {
  const auto op = solve_stack(OxramParams{}, 1e-9, StackConfig{}, Polarity::kSet, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(op.current, 0.0);
}

// ---------------------------------------------------------------------------
// MNA OxramDevice
// ---------------------------------------------------------------------------

TEST(OxramDevice, DcCurrentMatchesModel) {
  spice::Circuit c;
  const int te = c.node("te");
  c.add<dev::VoltageSource>("V", te, spice::kGround, 0.3);
  const OxramParams p;
  auto& cell = c.add<OxramDevice>("X", te, spice::kGround, p, 1e-9);
  spice::MnaSystem system(c);
  const auto result = spice::solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(cell.current(result.solution), cell_current(p, 0.3, 1e-9),
              cell_current(p, 0.3, 1e-9) * 1e-6);
  EXPECT_NEAR(cell.resistance(0.3), resistance_at(p, 0.3, 1e-9), 1.0);
}

TEST(OxramDevice, TransientResetGrowsGap) {
  spice::Circuit c;
  const int be = c.node("be");
  // RESET polarity: BE held positive (TE grounded).
  spice::PulseSpec spec;
  spec.v2 = 1.2;
  spec.rise = 10e-9;
  spec.fall = 10e-9;
  spec.width = 2e-6;
  c.add<dev::VoltageSource>("V", be, spice::kGround,
                            std::make_shared<spice::PulseWaveform>(spec));
  const OxramParams p;
  auto& cell = c.add<OxramDevice>("X", spice::kGround, be, p, p.g_min);
  spice::MnaSystem system(c);
  spice::TransientOptions options;
  options.t_stop = 2.2e-6;
  options.dt_max = 10e-9;
  const auto result = spice::run_transient(system, options);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(cell.gap(), 1e-9);  // clearly RESET
}

}  // namespace
}  // namespace oxmlc::oxram
