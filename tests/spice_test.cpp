#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"
#include "spice/waveform.hpp"
#include "util/units.hpp"
#include "util/error.hpp"

namespace oxmlc::spice {
namespace {

using dev::Capacitor;
using dev::CurrentSource;
using dev::Inductor;
using dev::Resistor;
using dev::VoltageSource;

// ---------------------------------------------------------------------------
// waveforms
// ---------------------------------------------------------------------------

TEST(Waveform, DcIsConstant) {
  DcWaveform w(2.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 2.5);
  EXPECT_DOUBLE_EQ(w.value(1.0), 2.5);
}

TEST(Waveform, PulseShape) {
  PulseSpec spec;
  spec.v1 = 0.0;
  spec.v2 = 1.0;
  spec.delay = 1e-6;
  spec.rise = 1e-7;
  spec.fall = 1e-7;
  spec.width = 1e-6;
  PulseWaveform w(spec);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_NEAR(w.value(1e-6 + 5e-8), 0.5, 1e-9);            // mid-rise
  EXPECT_DOUBLE_EQ(w.value(1.5e-6), 1.0);                  // plateau
  EXPECT_NEAR(w.value(1e-6 + 1e-7 + 1e-6 + 5e-8), 0.5, 1e-9);  // mid-fall
  EXPECT_DOUBLE_EQ(w.value(5e-6), 0.0);                    // after
}

TEST(Waveform, PulseRepeatsWithPeriod) {
  PulseSpec spec;
  spec.v2 = 1.0;
  spec.rise = 1e-9;
  spec.fall = 1e-9;
  spec.width = 1e-6;
  spec.period = 4e-6;
  PulseWaveform w(spec);
  EXPECT_DOUBLE_EQ(w.value(0.5e-6), 1.0);
  EXPECT_DOUBLE_EQ(w.value(2e-6), 0.0);
  EXPECT_DOUBLE_EQ(w.value(4.5e-6), 1.0);  // second period
}

TEST(Waveform, PulseBreakpointsSortedWithinHorizon) {
  PulseSpec spec;
  spec.v2 = 1.0;
  spec.delay = 1e-6;
  spec.rise = 1e-7;
  spec.fall = 1e-7;
  spec.width = 1e-6;
  PulseWaveform w(spec);
  const auto bps = w.breakpoints(10e-6);
  ASSERT_EQ(bps.size(), 4u);
  EXPECT_DOUBLE_EQ(bps[0], 1e-6);
  EXPECT_DOUBLE_EQ(bps[1], 1.1e-6);
  for (std::size_t i = 1; i < bps.size(); ++i) EXPECT_GT(bps[i], bps[i - 1]);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  PwlWaveform w({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(2.0), 2.0);
  EXPECT_DOUBLE_EQ(w.value(9.0), 2.0);
}

TEST(Waveform, PwlRejectsUnsortedPoints) {
  EXPECT_THROW(PwlWaveform({{1.0, 0.0}, {0.5, 1.0}}), InvalidArgumentError);
}

TEST(Waveform, SinBasics) {
  SinWaveform w(1.0, 0.5, 1e6);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.0);
  EXPECT_NEAR(w.value(0.25e-6), 1.5, 1e-9);  // quarter period peak
}

TEST(Waveform, StoppablePulseFollowsNaturalUntilStopped) {
  PulseSpec spec;
  spec.v2 = 2.0;
  spec.rise = 1e-8;
  spec.fall = 1e-8;
  spec.width = 1e-5;
  StoppablePulse w(spec);
  EXPECT_DOUBLE_EQ(w.value(1e-6), 2.0);
  EXPECT_FALSE(w.stopped());
  w.stop(2e-6);
  EXPECT_TRUE(w.stopped());
  EXPECT_DOUBLE_EQ(w.value(1.5e-6), 2.0);          // before stop: unchanged
  EXPECT_NEAR(w.value(2e-6 + 5e-9), 1.0, 1e-9);    // mid commanded ramp
  EXPECT_DOUBLE_EQ(w.value(2e-6 + 2e-8), 0.0);     // after ramp
  // Idempotent: later stop commands are ignored.
  w.stop(5e-6);
  EXPECT_DOUBLE_EQ(w.stop_time(), 2e-6);
  w.reset_command();
  EXPECT_FALSE(w.stopped());
  EXPECT_DOUBLE_EQ(w.value(3e-6), 2.0);
}

// ---------------------------------------------------------------------------
// circuit bookkeeping
// ---------------------------------------------------------------------------

TEST(Circuit, GroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("GND"), kGround);
}

TEST(Circuit, NodesAreStableAndNamed) {
  Circuit c;
  const int a = c.node("a");
  const int b = c.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(c.node("a"), a);
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_EQ(c.node_count(), 2u);
  EXPECT_THROW(c.node_index("missing"), InvalidArgumentError);
}

TEST(Circuit, FinalizeAssignsBranchesAndLocks) {
  Circuit c;
  const int a = c.node("a");
  c.add<VoltageSource>("V1", a, kGround, 1.0);
  c.add<Resistor>("R1", a, kGround, 1e3);
  c.finalize();
  EXPECT_EQ(c.unknown_count(), 2u);  // 1 node + 1 branch
  EXPECT_THROW(c.node("new_node"), InvalidArgumentError);
  EXPECT_NE(c.find_device("V1"), nullptr);
  EXPECT_EQ(c.find_device("nope"), nullptr);
}

// ---------------------------------------------------------------------------
// DC analysis
// ---------------------------------------------------------------------------

TEST(Dc, VoltageDivider) {
  Circuit c;
  const int in = c.node("in");
  const int mid = c.node("mid");
  c.add<VoltageSource>("V1", in, kGround, 10.0);
  c.add<Resistor>("R1", in, mid, 1e3);
  c.add<Resistor>("R2", mid, kGround, 3e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(mid)], 7.5, 1e-6);  // gmin shunt
}

TEST(Dc, CurrentSourceIntoResistor) {
  Circuit c;
  const int n = c.node("n");
  // 1 mA pulled from ground through the source into node n.
  c.add<CurrentSource>("I1", kGround, n, 1e-3);
  c.add<Resistor>("R1", n, kGround, 2e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(n)], 2.0, 1e-6);  // gmin shunt
}

TEST(Dc, SourceBranchCurrentIsSolved) {
  Circuit c;
  const int a = c.node("a");
  auto& source = c.add<VoltageSource>("V1", a, kGround, 5.0);
  c.add<Resistor>("R1", a, kGround, 1e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  // 5 mA flows out of the + terminal through R1: branch current is -5 mA
  // (defined flowing + -> - through the source).
  EXPECT_NEAR(source.current(result.solution), -5e-3, 1e-9);
}

TEST(Dc, FloatingNodeHandledByGmin) {
  Circuit c;
  c.node("floating");
  const int a = c.node("a");
  c.add<VoltageSource>("V1", a, kGround, 1.0);
  c.add<Resistor>("R1", a, kGround, 1e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);  // gmin anchors the floating node
}

TEST(Dc, VcvsGain) {
  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, 0.5);
  c.add<dev::Vcvs>("E1", out, kGround, in, kGround, 10.0);
  c.add<Resistor>("RL", out, kGround, 1e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(out)], 5.0, 1e-9);
}

TEST(Dc, VccsTransconductance) {
  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, 2.0);
  // 1 mS * 2 V = 2 mA pulled out of `out` into ground through the source.
  c.add<dev::Vccs>("G1", out, kGround, in, kGround, 1e-3);
  c.add<Resistor>("RL", out, kGround, 1e3);
  MnaSystem system(c);
  const DcResult result = solve_dc(system);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[static_cast<std::size_t>(out)], -2.0, 1e-5);  // gmin shunt
}

// ---------------------------------------------------------------------------
// transient analysis
// ---------------------------------------------------------------------------

TEST(Transient, RcChargingMatchesAnalytic) {
  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  PulseSpec spec;
  spec.v2 = 1.0;
  spec.rise = 1e-9;
  spec.fall = 1e-9;
  spec.width = 1e-3;
  c.add<VoltageSource>("V1", in, kGround, std::make_shared<PulseWaveform>(spec));
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Capacitor>("C1", out, kGround, 1e-9);  // tau = 1 us

  MnaSystem system(c);
  TransientOptions options;
  options.t_stop = 3e-6;
  options.dt_max = 5e-9;
  std::vector<Probe> probes = {{"vout", [out](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(out)];
                                }}};
  const TransientResult result = run_transient(system, options, probes);
  ASSERT_TRUE(result.completed);
  const double v_end = result.probe_values[0].back();
  EXPECT_NEAR(v_end, 1.0 - std::exp(-3.0), 5e-3);
}

TEST(Transient, RlcRingingFrequency) {
  // Series RLC driven by a step; check the damped oscillation period.
  Circuit c;
  const int in = c.node("in");
  const int mid = c.node("mid");
  const int out = c.node("out");
  PulseSpec spec;
  spec.v2 = 1.0;
  spec.rise = 1e-9;
  spec.fall = 1e-9;
  spec.width = 1e-3;
  c.add<VoltageSource>("V1", in, kGround, std::make_shared<PulseWaveform>(spec));
  c.add<Resistor>("R1", in, mid, 10.0);
  c.add<Inductor>("L1", mid, out, 1e-6);
  c.add<Capacitor>("C1", out, kGround, 1e-9);  // f0 ~ 5.03 MHz

  MnaSystem system(c);
  TransientOptions options;
  options.t_stop = 1e-6;
  options.dt_max = 1e-9;
  std::vector<Probe> probes = {{"v", [out](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(out)];
                                }}};
  const TransientResult result = run_transient(system, options, probes);

  // Find the first two upward crossings of 1.0 (the final value).
  const auto& v = result.probe_values[0];
  const auto& t = result.times;
  std::vector<double> crossings;
  for (std::size_t k = 1; k < v.size() && crossings.size() < 2; ++k) {
    if (v[k - 1] < 1.0 && v[k] >= 1.0) crossings.push_back(t[k]);
  }
  ASSERT_EQ(crossings.size(), 2u);
  const double period = crossings[1] - crossings[0];
  const double expected = 2.0 * oxmlc::phys::kPi * std::sqrt(1e-6 * 1e-9);
  EXPECT_NEAR(period, expected, 0.05 * expected);
}

TEST(Transient, EventFiresAndCallbackStopsPulse) {
  // RC charging with an event at Vout = 0.5 commanding the source to stop.
  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  PulseSpec spec;
  spec.v2 = 1.0;
  spec.rise = 1e-9;
  spec.fall = 1e-8;
  spec.width = 1e-3;
  auto pulse = std::make_shared<StoppablePulse>(spec);
  c.add<VoltageSource>("V1", in, kGround, pulse);
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Capacitor>("C1", out, kGround, 1e-9);

  MnaSystem system(c);
  TransientOptions options;
  options.t_stop = 5e-6;
  options.dt_max = 1e-8;

  std::vector<TransientEvent> events(1);
  events[0].name = "half";
  events[0].value = [out](double, std::span<const double> x) {
    return x[static_cast<std::size_t>(out)];
  };
  events[0].threshold = 0.5;
  events[0].direction = EventDirection::kRising;
  events[0].resolution = 1e-9;
  events[0].on_fire = [pulse](double t, std::span<const double>) { pulse->stop(t); };

  std::vector<Probe> probes = {{"v", [out](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(out)];
                                }}};
  const TransientResult result = run_transient(system, options, probes, std::move(events));
  ASSERT_EQ(result.fired_events.size(), 1u);
  // Crossing of 0.5 at t = tau ln 2 = 0.693 us.
  EXPECT_NEAR(result.fired_events[0].time, 0.693e-6, 0.03e-6);
  // After the stop the output must decay back below 0.2 V by the end.
  EXPECT_LT(result.probe_values[0].back(), 0.2);
}

TEST(Transient, BreakpointsAreHit) {
  // A narrow pulse far into the run must not be stepped over.
  Circuit c;
  const int in = c.node("in");
  PulseSpec spec;
  spec.v2 = 1.0;
  spec.delay = 2e-6;
  spec.rise = 1e-9;
  spec.fall = 1e-9;
  spec.width = 20e-9;  // 20 ns sliver after 2 us of nothing
  c.add<VoltageSource>("V1", in, kGround, std::make_shared<PulseWaveform>(spec));
  c.add<Resistor>("R1", in, kGround, 1e3);
  MnaSystem system(c);
  TransientOptions options;
  options.t_stop = 3e-6;
  options.dt_max = 1e-6;  // much wider than the pulse
  std::vector<Probe> probes = {{"v", [in](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(in)];
                                }}};
  const TransientResult result = run_transient(system, options, probes);
  double v_max = 0.0;
  for (double v : result.probe_values[0]) v_max = std::max(v_max, v);
  EXPECT_GT(v_max, 0.99);
}

// Regression: a termination-style comparator armed exactly at its reference
// must still fire. This is the IrefR RESET-termination arming scenario — the
// monitored current starts exactly on the threshold at t = 0 and falls; the
// old predicate required `before > threshold`, so the event never fired.
TEST(Transient, EventArmedExactlyAtThresholdFires) {
  Circuit c;
  const int in = c.node("in");
  c.add<VoltageSource>("V1", in, kGround, std::make_shared<DcWaveform>(1.0));
  c.add<Resistor>("R1", in, kGround, 1e3);
  MnaSystem system(c);

  TransientOptions options;
  options.t_stop = 1e-7;
  options.dt_max = 1e-9;

  // Deterministic monitored quantity (pure function of t, exact at t = 0):
  // starts at the threshold, then decays — the comparator should trip on the
  // first step off the boundary.
  const double iref = 0.5;
  std::vector<TransientEvent> events(1);
  events[0].name = "terminate";
  events[0].value = [](double t, std::span<const double>) { return 0.5 - t * 1e6; };
  events[0].threshold = iref;
  events[0].direction = EventDirection::kFalling;
  events[0].resolution = 1e-8;

  std::vector<Probe> probes = {{"v", [in](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(in)];
                                }}};
  const TransientResult result = run_transient(system, options, probes, std::move(events));
  ASSERT_EQ(result.fired_events.size(), 1u);
  EXPECT_LT(result.fired_events[0].time, 5e-9);  // first accepted steps
}

// A signal resting exactly on the threshold across several steps must not
// fire until it moves off the boundary in the watched direction.
TEST(Transient, EventRestingOnThresholdDoesNotFire) {
  Circuit c;
  const int in = c.node("in");
  c.add<VoltageSource>("V1", in, kGround, std::make_shared<DcWaveform>(1.0));
  c.add<Resistor>("R1", in, kGround, 1e3);
  MnaSystem system(c);

  TransientOptions options;
  options.t_stop = 1e-7;
  options.dt_max = 1e-9;

  std::vector<TransientEvent> events(1);
  events[0].name = "flat";
  events[0].value = [](double, std::span<const double>) { return 0.5; };
  events[0].threshold = 0.5;
  events[0].direction = EventDirection::kAny;
  events[0].resolution = 1e-8;

  std::vector<Probe> probes;
  const TransientResult result = run_transient(system, options, probes, std::move(events));
  EXPECT_TRUE(result.fired_events.empty());
}

// Regression: a breakpoint landing closer than the minimum step (kDtMin,
// 1e-14 s in transient.cpp) to the previous one must not clamp the step below
// it (the old snap drove Newton with a degenerate 2e-15 s step). The sub-kDtMin
// gap is merged into the next step.
TEST(Transient, SubDtMinBreakpointGapIsMerged) {
  constexpr double kDtMin = 1e-14;
  Circuit c;
  const int in = c.node("in");
  // PWL knots 2e-15 apart: two breakpoints closer than kDtMin (and farther
  // apart than the 1e-15 dedup window in collect_breakpoints).
  std::vector<std::pair<double, double>> points = {
      {0.0, 0.0}, {1e-9, 0.0}, {1e-9 + 2e-15, 1.0}, {1e-7, 1.0}};
  c.add<VoltageSource>("V1", in, kGround, std::make_shared<PwlWaveform>(points));
  c.add<Resistor>("R1", in, kGround, 1e3);
  MnaSystem system(c);

  TransientOptions options;
  options.t_stop = 5e-9;
  options.dt_max = 1e-9;

  std::vector<Probe> probes = {{"v", [in](double, std::span<const double> x) {
                                  return x[static_cast<std::size_t>(in)];
                                }}};
  const TransientResult result = run_transient(system, options, probes);
  ASSERT_TRUE(result.completed);
  ASSERT_GE(result.times.size(), 2u);
  for (std::size_t k = 1; k + 1 < result.times.size(); ++k) {
    const double delta = result.times[k] - result.times[k - 1];
    EXPECT_GE(delta, kDtMin * 0.999)
        << "step " << k << " at t=" << result.times[k];
  }
  // The source still reaches its post-knot value: the breakpoint was merged,
  // not skipped.
  EXPECT_NEAR(result.probe_values[0].back(), 1.0, 1e-6);
}

TEST(Transient, IntegrateTrapezoid) {
  const std::vector<double> t = {0.0, 1.0, 2.0};
  const std::vector<double> v = {0.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(TransientResult::integrate(t, v), 2.0);
}

TEST(Dc, SingularFailureNamesOffendingUnknown) {
  // A VCVS whose output senses itself with unity gain: V(n1) = 1 * V(n1).
  // The stamps exist symbolically (the static analyzer's pattern check
  // passes) but cancel numerically, so LU hits a zero pivot — and the error
  // must name the circuit unknown, not a bare matrix column.
  Circuit c;
  const int n1 = c.node("n1");
  c.add<dev::Vcvs>("E1", n1, kGround, n1, kGround, 1.0);
  MnaSystem system(c);
  try {
    solve_dc(system);
    FAIL() << "expected singular-matrix throw";
  } catch (const ConvergenceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("branch current of 'E1'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace oxmlc::spice
