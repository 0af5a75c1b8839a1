#include <gtest/gtest.h>

#include <cmath>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace oxmlc::dev {
namespace {

using spice::Circuit;
using spice::DcResult;
using spice::kGround;
using spice::MnaSystem;
using spice::solve_dc;

double node_v(const DcResult& r, int node) {
  return r.solution[static_cast<std::size_t>(node)];
}

// ---------------------------------------------------------------------------
// passives: constructor validation
// ---------------------------------------------------------------------------

TEST(Passive, RejectsNonPositiveValues) {
  EXPECT_THROW(Resistor("R", 0, 1, 0.0), InvalidArgumentError);
  EXPECT_THROW(Resistor("R", 0, 1, -5.0), InvalidArgumentError);
  EXPECT_THROW(Capacitor("C", 0, 1, 0.0), InvalidArgumentError);
  EXPECT_THROW(Inductor("L", 0, 1, -1e-9), InvalidArgumentError);
}

TEST(Passive, ResistorCurrentHelper) {
  Circuit c;
  const int a = c.node("a");
  c.add<VoltageSource>("V", a, kGround, 2.0);
  auto& r = c.add<Resistor>("R", a, kGround, 1e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(r.current(result.solution), 2e-3, 1e-9);
}

TEST(Passive, SetResistanceTakesEffect) {
  Circuit c;
  const int a = c.node("a");
  const int b = c.node("b");
  c.add<VoltageSource>("V", a, kGround, 2.0);
  auto& r1 = c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, kGround, 1e3);
  MnaSystem system(c);
  ASSERT_TRUE(solve_dc(system).converged);
  r1.set_resistance(3e3);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(node_v(result, b), 0.5, 1e-9);
  EXPECT_THROW(r1.set_resistance(0.0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// diode
// ---------------------------------------------------------------------------

TEST(Diode, ForwardDropInSeriesCircuit) {
  Circuit c;
  const int in = c.node("in");
  const int a = c.node("a");
  c.add<VoltageSource>("V", in, kGround, 5.0);
  c.add<Resistor>("R", in, a, 1e3);
  c.add<Diode>("D", a, kGround);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  const double vd = node_v(result, a);
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
  // KVL sanity: I = (5 - vd)/1k must match the diode equation.
  Diode probe("probe", 0, 1);
  double i = 0.0, g = 0.0;
  probe.evaluate(vd, i, g);
  EXPECT_NEAR(i, (5.0 - vd) / 1e3, 1e-6);
}

TEST(Diode, ReverseBiasBlocksAndEvaluateIsContinuous) {
  Diode d("d", 0, 1);
  double i = 0.0, g = 0.0;
  d.evaluate(-5.0, i, g);
  EXPECT_NEAR(i, -1e-14, 1e-15);
  EXPECT_GT(g, 0.0);
  // C1 continuity at the linearization point: compare the two branches.
  double i_lo, g_lo, i_hi, g_hi;
  const double v_crit = 0.025852 * std::log(1e14);  // approximately
  d.evaluate(v_crit - 1e-6, i_lo, g_lo);
  d.evaluate(v_crit + 1e-6, i_hi, g_hi);
  EXPECT_NEAR(i_lo, i_hi, std::fabs(i_hi) * 1e-3);
  EXPECT_NEAR(g_lo, g_hi, std::fabs(g_hi) * 1e-3);
}

// ---------------------------------------------------------------------------
// MOSFET model evaluation
// ---------------------------------------------------------------------------

TEST(Mosfet, RegionsOfLevel1) {
  const MosfetParams p = tech130hv::nmos(1e-6, 0.5e-6);
  // Cutoff.
  auto op = evaluate_level1(p, p.vt0 - 0.1, 1.0, 0.0);
  EXPECT_EQ(op.region, MosOperatingPoint::Region::kCutoff);
  EXPECT_DOUBLE_EQ(op.ids, 0.0);
  // Triode.
  op = evaluate_level1(p, p.vt0 + 1.0, 0.2, 0.0);
  EXPECT_EQ(op.region, MosOperatingPoint::Region::kTriode);
  EXPECT_GT(op.ids, 0.0);
  EXPECT_GT(op.gds, 0.0);
  // Saturation.
  op = evaluate_level1(p, p.vt0 + 0.5, 2.0, 0.0);
  EXPECT_EQ(op.region, MosOperatingPoint::Region::kSaturation);
  const double expected = 0.5 * p.beta() * 0.25 * (1.0 + p.lambda * 2.0);
  EXPECT_NEAR(op.ids, expected, expected * 1e-9);
}

TEST(Mosfet, ContinuousAcrossTriodeSaturationBoundary) {
  const MosfetParams p = tech130hv::nmos(2e-6, 0.5e-6);
  const double vgs = p.vt0 + 0.6;
  const double vov = 0.6;
  auto below = evaluate_level1(p, vgs, vov - 1e-9, 0.0);
  auto above = evaluate_level1(p, vgs, vov + 1e-9, 0.0);
  EXPECT_NEAR(below.ids, above.ids, std::fabs(above.ids) * 1e-6);
  EXPECT_NEAR(below.gm, above.gm, std::fabs(above.gm) * 1e-5);
}

TEST(Mosfet, BodyEffectRaisesThreshold) {
  const MosfetParams p = tech130hv::nmos(1e-6, 0.5e-6);
  const auto zero_bias = evaluate_level1(p, 1.5, 1.0, 0.0);
  const auto reverse_body = evaluate_level1(p, 1.5, 1.0, -1.0);
  EXPECT_GT(reverse_body.vth, zero_bias.vth);
  EXPECT_LT(reverse_body.ids, zero_bias.ids);
  EXPECT_GT(reverse_body.gmbs, 0.0);
}

TEST(Mosfet, GmMatchesFiniteDifference) {
  const MosfetParams p = tech130hv::nmos(1e-6, 0.5e-6);
  const double vgs = 1.4, vds = 2.0, dv = 1e-6;
  const auto base = evaluate_level1(p, vgs, vds, 0.0);
  const auto bumped = evaluate_level1(p, vgs + dv, vds, 0.0);
  EXPECT_NEAR(base.gm, (bumped.ids - base.ids) / dv, std::fabs(base.gm) * 1e-3);
  const auto vds_bumped = evaluate_level1(p, vgs, vds + dv, 0.0);
  EXPECT_NEAR(base.gds, (vds_bumped.ids - base.ids) / dv, std::fabs(base.gds) * 1e-2 + 1e-9);
}

// ---------------------------------------------------------------------------
// MOSFET in circuit
// ---------------------------------------------------------------------------

TEST(Mosfet, NmosCommonSourceOperatingPoint) {
  Circuit c;
  const int vdd = c.node("vdd");
  const int drain = c.node("d");
  const int gate = c.node("g");
  c.add<VoltageSource>("Vdd", vdd, kGround, 3.3);
  c.add<VoltageSource>("Vg", gate, kGround, 1.2);
  c.add<Resistor>("Rd", vdd, drain, 10e3);
  const MosfetParams p = tech130hv::nmos(1e-6, 0.5e-6);
  c.add<Mosfet>("M1", drain, gate, kGround, kGround, p);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  const double vd = node_v(result, drain);
  // KCL cross-check: resistor current equals the model's saturation current.
  const double i_r = (3.3 - vd) / 10e3;
  const auto op = evaluate_level1(p, 1.2, vd, 0.0);
  EXPECT_NEAR(i_r, op.ids, std::fabs(op.ids) * 1e-4 + 1e-12);
}

TEST(Mosfet, PmosSourceFollowerConducts) {
  Circuit c;
  const int vdd = c.node("vdd");
  const int out = c.node("out");
  c.add<VoltageSource>("Vdd", vdd, kGround, 3.3);
  const MosfetParams p = tech130hv::pmos(4e-6, 0.5e-6);
  // Gate grounded, source at vdd, drain to out: PMOS on.
  c.add<Mosfet>("M1", out, kGround, vdd, vdd, p);
  c.add<Resistor>("RL", out, kGround, 10e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(node_v(result, out), 2.5);  // pulled high through the PMOS
}

TEST(Mosfet, CurrentMirrorCopiesWithinPercent) {
  Circuit c;
  const int vdd = c.node("vdd");
  const int diode = c.node("diode");
  const int out = c.node("out");
  c.add<VoltageSource>("Vdd", vdd, kGround, 3.3);
  // 10 uA into the diode-connected device.
  c.add<CurrentSource>("Iin", vdd, diode, 10e-6);
  const MosfetParams p = tech130hv::nmos(20e-6, 2e-6);
  c.add<Mosfet>("M1", diode, diode, kGround, kGround, p);
  c.add<Mosfet>("M2", out, diode, kGround, kGround, p);
  auto& rl = c.add<Resistor>("RL", vdd, out, 50e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  const double i_copy = rl.current(result.solution);
  EXPECT_NEAR(i_copy, 10e-6, 1.5e-6);  // lambda mismatch tolerated
}

TEST(Mosfet, CmosInverterSwitches) {
  Circuit c;
  const int vdd = c.node("vdd");
  const int in = c.node("in");
  const int out = c.node("out");
  c.add<VoltageSource>("Vdd", vdd, kGround, 3.3);
  auto& vin = c.add<VoltageSource>("Vin", in, kGround, 0.0);
  c.add<Mosfet>("Mp", out, in, vdd, vdd, tech130hv::pmos(4e-6, 0.5e-6));
  c.add<Mosfet>("Mn", out, in, kGround, kGround, tech130hv::nmos(2e-6, 0.5e-6));
  MnaSystem system(c);

  vin.set_waveform(std::make_shared<spice::DcWaveform>(0.0));
  DcResult low = solve_dc(system);
  ASSERT_TRUE(low.converged);
  EXPECT_GT(node_v(low, out), 3.2);  // input low -> output high

  vin.set_waveform(std::make_shared<spice::DcWaveform>(3.3));
  DcResult high = solve_dc(system);
  ASSERT_TRUE(high.converged);
  EXPECT_LT(node_v(high, out), 0.1);  // input high -> output low
}

TEST(Mosfet, ApplyMismatchIsRelativeToNominal) {
  const MosfetParams p = tech130hv::nmos(1e-6, 0.5e-6);
  Mosfet m("m", 0, 1, 2, 3, p);
  m.apply_mismatch(0.01, 0.05);
  EXPECT_NEAR(m.params().vt0, p.vt0 + 0.01, 1e-12);
  EXPECT_NEAR(m.params().kp, p.kp * 1.05, 1e-12);
  // Second application replaces (not stacks) the first.
  m.apply_mismatch(-0.01, 0.0);
  EXPECT_NEAR(m.params().vt0, p.vt0 - 0.01, 1e-12);
  EXPECT_NEAR(m.params().kp, p.kp, 1e-12);
}

// ---------------------------------------------------------------------------
// switch and comparator
// ---------------------------------------------------------------------------

TEST(VSwitch, ConductanceSweepsBetweenStates) {
  VSwitch::Params params;
  params.threshold = 1.0;
  params.transition = 0.05;
  params.r_on = 100.0;
  params.r_off = 1e8;
  VSwitch sw("S", 0, 1, 2, 3, params);
  EXPECT_NEAR(sw.conductance(0.0), 1e-8, 1e-9);
  EXPECT_NEAR(sw.conductance(2.0), 1e-2, 1e-4);
  EXPECT_NEAR(sw.conductance(1.0), std::sqrt(1e-8 * 1e-2), 1e-6);  // geometric mid
}

TEST(VSwitch, InCircuitOnOff) {
  for (double ctrl_v : {0.0, 3.3}) {
    Circuit c;
    const int in = c.node("in");
    const int out = c.node("out");
    const int ctrl = c.node("ctrl");
    c.add<VoltageSource>("Vin", in, kGround, 1.0);
    c.add<VoltageSource>("Vc", ctrl, kGround, ctrl_v);
    VSwitch::Params params;
    params.threshold = 1.5;
    params.r_on = 10.0;
    params.r_off = 1e9;
    c.add<VSwitch>("S", in, out, ctrl, kGround, params);
    c.add<Resistor>("RL", out, kGround, 1e3);
    MnaSystem system(c);
    const DcResult result = solve_dc(system);
    ASSERT_TRUE(result.converged);
    if (ctrl_v > 1.5) {
      EXPECT_GT(node_v(result, out), 0.95);
    } else {
      EXPECT_LT(node_v(result, out), 0.01);
    }
  }
}

// ---------------------------------------------------------------------------
// sources: transient behaviour
// ---------------------------------------------------------------------------

TEST(Sources, NullWaveformRejected) {
  EXPECT_THROW(VoltageSource("V", 0, 1, nullptr), InvalidArgumentError);
  EXPECT_THROW(CurrentSource("I", 0, 1, nullptr), InvalidArgumentError);
}

TEST(Sources, PulseDrivesTransient) {
  Circuit c;
  const int in = c.node("in");
  spice::PulseSpec spec;
  spec.v2 = 3.0;
  spec.delay = 100e-9;
  spec.rise = 10e-9;
  spec.fall = 10e-9;
  spec.width = 200e-9;
  c.add<VoltageSource>("V", in, kGround, std::make_shared<spice::PulseWaveform>(spec));
  c.add<Resistor>("R", in, kGround, 1e3);
  MnaSystem system(c);
  spice::TransientOptions options;
  options.t_stop = 500e-9;
  options.dt_max = 5e-9;
  std::vector<spice::Probe> probes = {{"v", [in](double, std::span<const double> x) {
                                         return x[static_cast<std::size_t>(in)];
                                       }}};
  const auto result = spice::run_transient(system, options, probes);
  const auto& t = result.times;
  const auto& v = result.probe_values[0];
  // Before the delay: zero. On the plateau: 3.0. After: zero.
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k] < 90e-9) {
      EXPECT_NEAR(v[k], 0.0, 1e-9);
    }
    if (t[k] > 120e-9 && t[k] < 300e-9) {
      EXPECT_NEAR(v[k], 3.0, 1e-9);
    }
    if (t[k] > 330e-9) {
      EXPECT_NEAR(v[k], 0.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace oxmlc::dev

// Appended coverage: current-controlled sources and switch polarity.
namespace oxmlc::dev {
namespace {

using spice::Circuit;
using spice::kGround;
using spice::MnaSystem;
using spice::solve_dc;

TEST(ControlledSources, CccsMirrorsSenseCurrent) {
  Circuit c;
  const int a = c.node("a");
  const int out = c.node("out");
  auto& sensor = c.add<VoltageSource>("Vs", a, kGround, 1.0);
  c.add<Resistor>("R1", a, kGround, 1e3);  // sense current: -1 mA through Vs
  c.add<Cccs>("F1", kGround, out, sensor, 2.0);
  c.add<Resistor>("RL", out, kGround, 1e3);
  MnaSystem system(c);
  const auto result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  // I(Vs) = -1 mA (1 mA flows out of the + terminal into R1, i.e. the branch
  // current + -> - through the source is negative). F forces
  // I(n+ -> n-) = gain * I(Vs) = -2 mA from gnd to out, which is +2 mA pulled
  // OUT of node `out`: V(out) = -2 mA * 1 kOhm = -2 V.
  const double vout = result.solution[static_cast<std::size_t>(out)];
  EXPECT_NEAR(vout, -2.0, 1e-6);
}

TEST(ControlledSources, CcvsTransresistance) {
  Circuit c;
  const int a = c.node("a");
  const int out = c.node("out");
  auto& sensor = c.add<VoltageSource>("Vs", a, kGround, 1.0);
  c.add<Resistor>("R1", a, kGround, 500.0);  // I(Vs) = -2 mA
  c.add<Ccvs>("H1", out, kGround, sensor, 1e3);  // V(out) = 1k * I(Vs)
  c.add<Resistor>("RL", out, kGround, 1e6);
  MnaSystem system(c);
  const auto result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(out)], -2.0, 1e-6);
}

TEST(ControlledSources, BranchIndexGuardBeforeFinalize) {
  Circuit c;
  auto& v = c.add<VoltageSource>("V1", c.node("x"), kGround, 1.0);
  EXPECT_EQ(v.branch_index(), -1);
  c.finalize();
  EXPECT_GE(v.branch_index(), 0);
}

TEST(VSwitchPolarity, ActiveLowInverts) {
  VSwitch::Params p;
  p.threshold = 1.0;
  p.r_on = 10.0;
  p.r_off = 1e8;
  p.active_low = true;
  VSwitch sw("S", 0, 1, 2, 3, p);
  EXPECT_NEAR(sw.conductance(0.0), 0.1, 1e-4);   // low control -> ON
  EXPECT_NEAR(sw.conductance(2.0), 1e-8, 1e-9);  // high control -> OFF
}

}  // namespace
}  // namespace oxmlc::dev
