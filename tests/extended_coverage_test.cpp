// Deeper coverage of corners not exercised by the per-module suites:
// transient-engine internals, preset devices, projections, logging, and
// additional parameterized properties.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "mlc/projections.hpp"
#include "oxram/presets.hpp"
#include "spice/ac.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace oxmlc {
namespace {

using dev::Capacitor;
using dev::Resistor;
using dev::VoltageSource;
using spice::Circuit;
using spice::kGround;
using spice::MnaSystem;

// ---------------------------------------------------------------------------
// transient engine internals
// ---------------------------------------------------------------------------

TEST(TransientInternals, RisingAndAnyEventDirections) {
  Circuit c;
  const int in = c.node("in");
  spice::PulseSpec spec;
  spec.v2 = 1.0;
  spec.delay = 10e-9;
  spec.rise = 1e-9;
  spec.fall = 1e-9;
  spec.width = 20e-9;
  c.add<VoltageSource>("V", in, kGround, std::make_shared<spice::PulseWaveform>(spec));
  c.add<Resistor>("R", in, kGround, 1e3);
  MnaSystem system(c);

  std::vector<spice::TransientEvent> events(2);
  events[0].name = "rising";
  events[0].value = [in](double, std::span<const double> x) {
    return x[static_cast<std::size_t>(in)];
  };
  events[0].threshold = 0.5;
  events[0].direction = spice::EventDirection::kRising;
  events[0].resolution = 0.2e-9;
  events[1] = events[0];
  events[1].name = "any";
  events[1].direction = spice::EventDirection::kAny;

  spice::TransientOptions options;
  options.t_stop = 60e-9;
  options.dt_max = 1e-9;
  const auto result = spice::run_transient(system, options, {}, std::move(events));

  int rising = 0, any = 0;
  for (const auto& fired : result.fired_events) {
    rising += fired.name == "rising";
    any += fired.name == "any";
  }
  EXPECT_EQ(rising, 1);
  EXPECT_EQ(any, 1);  // the up edge; an event fires once per run
}

TEST(TransientInternals, ProbeLookupByName) {
  Circuit c;
  const int in = c.node("in");
  c.add<VoltageSource>("V", in, kGround, 2.0);
  c.add<Resistor>("R", in, kGround, 1e3);
  MnaSystem system(c);
  std::vector<spice::Probe> probes = {
      {"vin", [in](double, std::span<const double> x) {
         return x[static_cast<std::size_t>(in)];
       }}};
  spice::TransientOptions options;
  options.t_stop = 10e-9;
  const auto result = spice::run_transient(system, options, probes);
  EXPECT_NEAR(result.probe("vin", probes).back(), 2.0, 1e-6);
  EXPECT_THROW(result.probe("nope", probes), InvalidArgumentError);
}

TEST(TransientInternals, RejectsNonPositiveStop) {
  Circuit c;
  c.add<Resistor>("R", c.node("a"), kGround, 1e3);
  MnaSystem system(c);
  spice::TransientOptions options;
  options.t_stop = 0.0;
  EXPECT_THROW(spice::run_transient(system, options), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// PCM preset sanity
// ---------------------------------------------------------------------------

TEST(PcmPreset, WindowAndPolarity) {
  const oxram::OxramParams p = oxram::pcm_like_params();
  // ON state a few kOhm, full amorphous several MOhm.
  EXPECT_LT(oxram::resistance_at(p, 0.3, p.g_min), 10e3);
  EXPECT_GT(oxram::resistance_at(p, 0.3, p.g_max), 5e6);
  // Same polarity conventions as the OxRAM preset.
  EXPECT_GT(oxram::gap_rate(p, -1.5, 1e-9, false), 0.0);
  EXPECT_LT(oxram::gap_rate(p, 1.4, 2e-9, false), 0.0);
}

TEST(PcmPreset, TerminationMonotoneAcrossWindow) {
  const oxram::OxramParams p = oxram::pcm_like_params();
  const oxram::StackConfig stack = oxram::pcm_like_stack();
  double prev = 1e12;
  for (double iref = oxram::kPcmIrefMin; iref <= oxram::kPcmIrefMax + 1e-9;
       iref += 12e-6) {
    oxram::FastCell cell(p, stack, p.g_min, false);
    cell.apply_set(oxram::pcm_like_set());
    oxram::ResetOperation op = oxram::pcm_like_reset();
    op.iref = iref;
    const auto result = cell.apply_reset(op);
    ASSERT_TRUE(result.terminated) << iref;
    const double r = cell.read().r_cell;
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(PcmPreset, NoFormingStepNeeded) {
  const oxram::OxramParams p = oxram::pcm_like_params();
  EXPECT_DOUBLE_EQ(p.dea_form, 0.0);
  // A virgin PCM cell crystallizes directly with the SET pulse.
  oxram::FastCell cell(p, oxram::pcm_like_stack(), p.g_virgin, /*virgin=*/true);
  cell.apply_set(oxram::pcm_like_set());
  EXPECT_LT(cell.read().r_cell, 20e3);
}

// ---------------------------------------------------------------------------
// projections plumbing
// ---------------------------------------------------------------------------

TEST(Projections, RowsMatchRequestedWidthsAndShrink) {
  const auto rows = mlc::run_projections({2, 3}, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].bits, 2u);
  EXPECT_EQ(rows[1].bits, 3u);
  EXPECT_GT(rows[0].minimal_spacing, rows[1].minimal_spacing);
  EXPECT_GT(rows[0].min_read_delta_i, rows[1].min_read_delta_i);
  EXPECT_FALSE(rows[0].overlap);  // 2 bits is trivially safe
}

// ---------------------------------------------------------------------------
// logging
// ---------------------------------------------------------------------------

TEST(Logging, LevelsGateOutput) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  // kInfo suppressed (would write to stderr; at minimum it must not crash and
  // the level getter must round-trip).
  OXMLC_INFO << "suppressed";
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kOff);
  OXMLC_ERROR << "also suppressed";
  set_log_level(before);
}

// ---------------------------------------------------------------------------
// property: AC of any passive RC divider never exceeds unity gain
// ---------------------------------------------------------------------------

class PassiveAcGain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PassiveAcGain, NoPassiveGain) {
  Rng rng(GetParam());
  Circuit c;
  const int in = c.node("in");
  auto& src = c.add<VoltageSource>("V", in, kGround, 0.0);
  src.set_ac(1.0);
  // Random RC ladder from `in` to ground.
  int previous = in;
  const std::size_t stages = 2 + rng.uniform_index(5);
  int last = in;
  for (std::size_t s = 0; s < stages; ++s) {
    const int next = c.node("n" + std::to_string(s));
    c.add<Resistor>("R" + std::to_string(s), previous, next,
                    std::pow(10.0, rng.uniform(2.0, 5.0)));
    c.add<Capacitor>("C" + std::to_string(s), next, kGround,
                     std::pow(10.0, rng.uniform(-13.0, -10.0)));
    previous = next;
    last = next;
  }
  c.add<Resistor>("Rend", last, kGround, std::pow(10.0, rng.uniform(3.0, 6.0)));

  MnaSystem system(c);
  spice::AcOptions options;
  options.f_start = 1e2;
  options.f_stop = 1e9;
  options.points_per_decade = 5;
  const auto result = spice::run_ac(system, options);
  ASSERT_TRUE(result.converged);
  for (std::size_t k = 0; k < result.frequencies.size(); ++k) {
    for (std::size_t n = 0; n < c.node_count(); ++n) {
      EXPECT_LE(result.magnitude(k, static_cast<int>(n)), 1.0 + 1e-9)
          << "node " << n << " f=" << result.frequencies[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassiveAcGain, ::testing::Values(2, 4, 8, 16, 32));

// ---------------------------------------------------------------------------
// property: transient energy balance on a driven RC — source energy equals
// dissipated + stored energy (first-law check on the integrator)
// ---------------------------------------------------------------------------

class EnergyBalance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnergyBalance, SourceEqualsDissipatedPlusStored) {
  Rng rng(GetParam());
  const double r_value = std::pow(10.0, rng.uniform(2.0, 4.0));
  const double c_value = std::pow(10.0, rng.uniform(-10.0, -9.0));
  const double v_step = rng.uniform(0.5, 3.0);

  Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  spice::PulseSpec spec;
  spec.v2 = v_step;
  spec.rise = 1e-9;
  spec.fall = 1e-9;
  spec.width = 1.0;
  c.add<VoltageSource>("V", in, kGround, std::make_shared<spice::PulseWaveform>(spec));
  auto& res = c.add<Resistor>("R", in, out, r_value);
  c.add<Capacitor>("C", out, kGround, c_value);

  MnaSystem system(c);
  spice::TransientOptions options;
  options.t_stop = 8.0 * r_value * c_value;  // well into settling
  options.dt_max = options.t_stop / 2000.0;

  std::vector<spice::Probe> probes = {
      {"i", [&res](double, std::span<const double> x) { return res.current(x); }},
      {"vin", [in](double, std::span<const double> x) {
         return x[static_cast<std::size_t>(in)];
       }},
      {"vout", [out](double, std::span<const double> x) {
         return x[static_cast<std::size_t>(out)];
       }}};
  const auto result = spice::run_transient(system, options, probes);

  // Source energy and resistor dissipation by trapezoidal integration.
  std::vector<double> p_src(result.times.size()), p_r(result.times.size());
  for (std::size_t k = 0; k < result.times.size(); ++k) {
    const double i = result.probe_values[0][k];
    p_src[k] = result.probe_values[1][k] * i;
    p_r[k] = i * i * r_value;
  }
  const double e_src = spice::TransientResult::integrate(result.times, p_src);
  const double e_r = spice::TransientResult::integrate(result.times, p_r);
  const double v_final = result.probe_values[2].back();
  const double e_c = 0.5 * c_value * v_final * v_final;

  EXPECT_NEAR(e_src, e_r + e_c, 0.02 * e_src);
  // Classic result: at full settling the resistor burned as much as the cap
  // stored (CV^2/2 each).
  EXPECT_NEAR(e_r, e_c, 0.05 * e_c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyBalance, ::testing::Values(3, 7, 11, 19));

// ---------------------------------------------------------------------------
// property: fast-path energy accounting is consistent — source energy at
// least covers the cell energy plus the resistive drops it implies
// ---------------------------------------------------------------------------

class FastPathEnergy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathEnergy, SourceCoversCellPlusDrops) {
  Rng rng(GetParam());
  oxram::FastCell cell =
      oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
  cell.apply_set(oxram::SetOperation{});
  oxram::ResetOperation op;
  op.iref = rng.uniform(8e-6, 34e-6);
  op.pulse.width = 10e-6;
  const auto result = cell.apply_reset(op);
  ASSERT_TRUE(result.terminated);
  EXPECT_GT(result.energy_cell, 0.0);
  EXPECT_GT(result.energy_source, result.energy_cell);
  // The drops (mirror + access + lines) cannot dissipate more than the whole
  // source budget.
  EXPECT_LT(result.energy_source, 10.0 * result.energy_cell + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEnergy, ::testing::Values(5, 10, 15));

}  // namespace
}  // namespace oxmlc
