#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "mlc/controller.hpp"
#include "oxram/drift.hpp"
#include "reliability/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace oxmlc::reliability {
namespace {

using oxram::DriftParams;

// ---------------------------------------------------------------------------
// drift law
// ---------------------------------------------------------------------------

TEST(DriftLaw, PhiIsMonotoneSaturating) {
  EXPECT_DOUBLE_EQ(oxram::drift_phi(0.0, 1e-6, 0.8), 0.0);
  EXPECT_DOUBLE_EQ(oxram::drift_phi(-1.0, 1e-6, 0.8), 0.0);
  double prev = 0.0;
  for (double t = 1e-9; t < 1e6; t *= 10.0) {
    const double phi = oxram::drift_phi(t, 1e-6, 0.8);
    EXPECT_GT(phi, prev) << t;
    EXPECT_LT(phi, 1.0) << t;
    prev = phi;
  }
  EXPECT_GT(prev, 0.999);  // essentially saturated after 12 decades
}

TEST(DriftLaw, TrajectoriesAreMonotoneTowardLrs) {
  const DriftParams p;
  const double g_min = 0.25e-9;
  const double g_anchor = 2.2e-9;
  double prev = g_anchor;
  for (double t = 1e-7; t <= 1e8; t *= 10.0) {
    const double g = oxram::drifted_gap(p, g_anchor, g_min, 0.05, 0.2, t);
    EXPECT_LE(g, prev) << t;
    EXPECT_GE(g, g_min) << t;
    prev = g;
  }
  EXPECT_LT(prev, g_anchor);  // decades of time really do move the state
}

TEST(DriftLaw, DisabledDriftFreezesState) {
  DriftParams off;
  off.enabled = false;
  EXPECT_DOUBLE_EQ(oxram::drifted_gap(off, 2.0e-9, 0.25e-9, 0.5, 0.5, 1e9), 2.0e-9);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(oxram::sample_relaxation_amplitude(off, rng), 0.0);
  EXPECT_DOUBLE_EQ(oxram::sample_drift_amplitude(off, rng), 0.0);
}

TEST(DriftLaw, BakeTemperatureAcceleratesSlowComponent) {
  DriftParams hot;
  hot.t_operating = 350.0;
  const DriftParams room;
  EXPECT_DOUBLE_EQ(oxram::drift_acceleration(room), 1.0);
  EXPECT_GT(oxram::drift_acceleration(hot), 1.0);
  // Same wall-clock time, hotter bake: strictly deeper drift.
  EXPECT_LT(oxram::drifted_gap(hot, 2.0e-9, 0.25e-9, 0.0, 0.2, 100.0),
            oxram::drifted_gap(room, 2.0e-9, 0.25e-9, 0.0, 0.2, 100.0));
}

TEST(DriftLaw, LossIsCappedAtFullDepth) {
  const DriftParams p;
  // Absurd amplitudes must bottom out at g_min, never undershoot it.
  const double g = oxram::drifted_gap(p, 2.5e-9, 0.25e-9, 50.0, 50.0, 1e8);
  EXPECT_DOUBLE_EQ(g, 0.25e-9);
  // A cell with no depth above the floor (or an anchor below it) has nothing
  // to lose, and a time before the anchor event moves nothing.
  EXPECT_EQ(oxram::drifted_gap(p, 1.0e-9, 1.0e-9, 0.5, 0.5, 1e3), 1.0e-9);
  EXPECT_EQ(oxram::drifted_gap(p, 0.2e-9, 0.3e-9, 0.05, 0.1, 1e3), 0.2e-9);
  EXPECT_EQ(oxram::drifted_gap(p, 2.0e-9, 0.3e-9, 0.05, 0.1, -5.0), 2.0e-9);
}

// ---------------------------------------------------------------------------
// endurance model
// ---------------------------------------------------------------------------

TEST(Endurance, WindowCompressesPastOnset) {
  const oxram::OxramParams fresh;
  EnduranceModel model;
  model.onset_cycles = 1e3;
  model.loss_per_decade = 0.1;

  // Below and at the onset: untouched.
  EXPECT_DOUBLE_EQ(worn_params(fresh, model, 10).g_min, fresh.g_min);
  EXPECT_DOUBLE_EQ(worn_params(fresh, model, 1000).g_max, fresh.g_max);

  // One decade past onset: 10 % of the window gone, split across both edges.
  const oxram::OxramParams one_decade = worn_params(fresh, model, 10000);
  const double window = fresh.g_max - fresh.g_min;
  EXPECT_NEAR(one_decade.g_min, fresh.g_min + 0.05 * window, 1e-15);
  EXPECT_NEAR(one_decade.g_max, fresh.g_max - 0.05 * window, 1e-15);

  // Deep wear saturates at kMaxWindowLoss (0.5) rather than inverting the window.
  const oxram::OxramParams saturated = worn_params(fresh, model, 1000000000000ULL);
  EXPECT_NEAR(saturated.g_max - saturated.g_min, 0.5 * window, 1e-15);
  EXPECT_LT(saturated.g_min, saturated.g_max);

  EnduranceModel off = model;
  off.enabled = false;
  EXPECT_DOUBLE_EQ(worn_params(fresh, off, 1000000).g_min, fresh.g_min);
}

// ---------------------------------------------------------------------------
// reliability engine
// ---------------------------------------------------------------------------

TEST(ReliabilityEngine, ProgramEventAnchorsAndDrawsAmplitudes) {
  array::FastArray grid(2, 2, oxram::OxramParams{}, oxram::OxramVariability{},
                        oxram::StackConfig{}, 99);
  ReliabilityConfig config;
  ReliabilityEngine engine(grid, config);
  EXPECT_FALSE(engine.trajectory(0, 0).programmed);
  EXPECT_EQ(engine.cycles(0, 0), 0u);

  grid.at(0, 0).set_gap(1.5e-9);
  engine.on_programmed(0, 0);
  const DriftTrajectory& trajectory = engine.trajectory(0, 0);
  EXPECT_TRUE(trajectory.programmed);
  EXPECT_EQ(engine.cycles(0, 0), 1u);
  EXPECT_DOUBLE_EQ(trajectory.anchor, 1.5e-9);
  EXPECT_DOUBLE_EQ(trajectory.t_anchor, 0.0);
  EXPECT_GT(trajectory.relax_amp, 0.0);
  EXPECT_GT(trajectory.drift_amp, 0.0);

  // A second program event re-anchors at the engine clock, re-draws the
  // per-event amplitude and keeps the per-cell activation (a device
  // property, not an event one).
  const double first_relax = trajectory.relax_amp;
  const double activation = trajectory.drift_amp;
  engine.advance(10.0);
  grid.at(0, 0).set_gap(1.8e-9);
  engine.on_programmed(0, 0);
  EXPECT_EQ(engine.cycles(0, 0), 2u);
  EXPECT_DOUBLE_EQ(trajectory.anchor, 1.8e-9);
  EXPECT_DOUBLE_EQ(trajectory.t_anchor, 10.0);
  EXPECT_NE(trajectory.relax_amp, first_relax);
  EXPECT_DOUBLE_EQ(trajectory.drift_amp, activation);

  // The one draw order: the relaxation amplitude, then (first event only)
  // the drift amplitude.
  const DriftParams drift;
  Rng rng(0xD7A3);
  Rng copy = rng;
  DriftTrajectory fresh;
  fresh.reanchor(drift, 1.2e-9, 0.0, rng);
  EXPECT_EQ(fresh.relax_amp, oxram::sample_relaxation_amplitude(drift, copy));
  EXPECT_EQ(fresh.drift_amp, oxram::sample_drift_amplitude(drift, copy));
}

TEST(ReliabilityEngine, AmplitudeStreamsAreOrderIndependent) {
  const oxram::OxramParams nominal;
  array::FastArray a(2, 2, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 7);
  array::FastArray b(2, 2, nominal, oxram::OxramVariability{}, oxram::StackConfig{}, 7);
  ReliabilityConfig config;
  ReliabilityEngine first(a, config);
  ReliabilityEngine second(b, config);
  // Touch the cells in different orders; the (seed, cell) streams must agree.
  first.on_programmed(1, 1);
  first.on_programmed(0, 0);
  second.on_programmed(0, 0);
  second.on_programmed(1, 1);
  EXPECT_DOUBLE_EQ(first.trajectory(1, 1).relax_amp, second.trajectory(1, 1).relax_amp);
  EXPECT_DOUBLE_EQ(first.trajectory(1, 1).drift_amp, second.trajectory(1, 1).drift_amp);
  EXPECT_DOUBLE_EQ(first.trajectory(0, 0).relax_amp, second.trajectory(0, 0).relax_amp);
}

// Whole-array acceptance: the state advance() writes depends on the engine
// clock only, so two unequal steps land bitwise where one step of the same
// total lands on a twin engine, on 4096 cells.
TEST(ReliabilityEngine, AdvanceMatchesScalarReferenceOn4096Cells) {
  ReliabilityConfig config;
  config.read_disturb.enabled = false;
  const auto program_all = [](array::FastArray& grid, ReliabilityEngine& engine) {
    Rng rng(0xBA7C4);
    for (std::size_t row = 0; row < grid.rows(); ++row) {
      for (std::size_t col = 0; col < grid.cols(); ++col) {
        oxram::FastCell& cell = grid.at(row, col);
        cell.set_gap(rng.uniform(cell.params().g_min, cell.params().g_max));
        engine.on_programmed(row, col);
      }
    }
  };
  array::FastArray stepped(64, 64, oxram::OxramParams{}, oxram::OxramVariability{},
                           oxram::StackConfig{}, 2024);
  array::FastArray single(64, 64, oxram::OxramParams{}, oxram::OxramVariability{},
                          oxram::StackConfig{}, 2024);
  ReliabilityEngine stepped_engine(stepped, config);
  ReliabilityEngine single_engine(single, config);
  program_all(stepped, stepped_engine);
  program_all(single, single_engine);

  stepped_engine.advance(0.5);
  stepped_engine.advance(999.5);
  single_engine.advance(1000.0);
  for (std::size_t row = 0; row < stepped.rows(); ++row) {
    for (std::size_t col = 0; col < stepped.cols(); ++col) {
      const double g = stepped.at(row, col).gap();
      EXPECT_LT(g, stepped_engine.trajectory(row, col).anchor);
      const double reference = single.at(row, col).gap();
      EXPECT_EQ(std::memcmp(&g, &reference, sizeof(double)), 0)
          << "cell (" << row << ", " << col << "): " << g << " vs " << reference;
    }
  }
}

TEST(ReliabilityEngine, NeverProgrammedCellsAreStationary) {
  array::FastArray grid(2, 2, oxram::OxramParams{}, oxram::OxramVariability{},
                        oxram::StackConfig{}, 11);
  ReliabilityConfig config;
  ReliabilityEngine engine(grid, config);
  grid.at(0, 0).set_gap(1.0e-9);
  engine.on_programmed(0, 0);
  grid.at(1, 1).set_gap(1.0e-9);  // mutated but never reported: stays put
  engine.advance(1e6);
  EXPECT_LT(grid.at(0, 0).gap(), 1.0e-9);
  EXPECT_DOUBLE_EQ(grid.at(1, 1).gap(), 1.0e-9);
}

TEST(ReliabilityEngine, ReadDisturbNudgesTowardLrs) {
  array::FastArray grid(1, 1, oxram::OxramParams{}, oxram::OxramVariability::disabled(),
                        oxram::StackConfig{}, 5);
  ReliabilityConfig config;
  config.drift.enabled = false;          // isolate the disturb channel
  config.read_disturb.accel = 1e9;       // make the 0.3 V stress visible
  ReliabilityEngine engine(grid, config);
  oxram::FastCell& cell = grid.at(0, 0);
  cell.set_gap(1.5e-9);
  cell.set_virgin(false);
  engine.on_programmed(0, 0);

  engine.apply_reads(0, 0, 1000);
  EXPECT_EQ(engine.reads(0, 0), 1000u);
  EXPECT_LT(engine.trajectory(0, 0).offset, 0.0);
  EXPECT_LT(cell.gap(), 1.5e-9);
  EXPECT_GE(cell.gap(), cell.params().g_min);

  // advance() must preserve the accumulated offset (drift disabled here).
  const double disturbed = cell.gap();
  engine.advance(100.0);
  EXPECT_NEAR(cell.gap(), disturbed, 1e-12 * disturbed);

  // At nominal stress a single sense is deliberately negligible.
  ReliabilityConfig nominal_config;
  nominal_config.drift.enabled = false;
  array::FastArray grid2(1, 1, oxram::OxramParams{}, oxram::OxramVariability::disabled(),
                         oxram::StackConfig{}, 5);
  ReliabilityEngine gentle(grid2, nominal_config);
  grid2.at(0, 0).set_gap(1.5e-9);
  grid2.at(0, 0).set_virgin(false);
  gentle.on_programmed(0, 0);
  gentle.on_read(0, 0);
  EXPECT_NEAR(grid2.at(0, 0).gap(), 1.5e-9, 1e-4 * 1.5e-9);
}

TEST(ReliabilityEngine, EnduranceWearCompressesTheCellWindow) {
  array::FastArray grid(1, 1, oxram::OxramParams{}, oxram::OxramVariability::disabled(),
                        oxram::StackConfig{}, 3);
  ReliabilityConfig config;
  config.endurance.onset_cycles = 10;
  config.endurance.loss_per_decade = 0.2;
  ReliabilityEngine engine(grid, config);
  const double fresh_g_min = grid.at(0, 0).params().g_min;
  const double fresh_g_max = grid.at(0, 0).params().g_max;
  grid.at(0, 0).set_gap(1.2e-9);
  for (int i = 0; i < 1000; ++i) engine.on_programmed(0, 0);
  EXPECT_EQ(engine.cycles(0, 0), 1000u);
  EXPECT_GT(grid.at(0, 0).params().g_min, fresh_g_min);
  EXPECT_LT(grid.at(0, 0).params().g_max, fresh_g_max);
}

TEST(ReliabilityEngine, RejectsOutOfRangeCells) {
  array::FastArray grid(2, 2, oxram::OxramParams{}, oxram::OxramVariability{},
                        oxram::StackConfig{}, 1);
  ReliabilityConfig config;
  ReliabilityEngine engine(grid, config);
  EXPECT_THROW(engine.on_programmed(2, 0), InvalidArgumentError);
  EXPECT_THROW(engine.on_read(0, 2), InvalidArgumentError);
  EXPECT_THROW(engine.advance(-1.0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// controller integration: relaxation-aware verify + scrub
// ---------------------------------------------------------------------------

struct ReliabilityControllerFixture : public ::testing::Test {
  ReliabilityControllerFixture()
      : config(mlc::QlcConfig::paper_default(4, 13)),
        programmer(config),
        memory(2, 8, config.nominal_cell, config.variability, config.stack, 314),
        controller(memory, programmer) {}

  mlc::QlcConfig config;
  mlc::QlcProgrammer programmer;
  array::FastArray memory;
  mlc::MemoryController controller;
};

TEST_F(ReliabilityControllerFixture, AttachRejectsForeignArray) {
  array::FastArray other(2, 8, oxram::OxramParams{}, oxram::OxramVariability{},
                         oxram::StackConfig{}, 315);
  ReliabilityConfig rel;
  ReliabilityEngine engine(other, rel);
  EXPECT_THROW(controller.attach_reliability(&engine), InvalidArgumentError);
}

TEST_F(ReliabilityControllerFixture, RelaxVerifyCatchesTheRelaxationTail) {
  ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  // Amplified relaxation (cf. the pulled-down wear onset in the endurance
  // example): with a 5 % median most deep-level draws cross the ~16 pm
  // half-band, so an 8-cell word is guaranteed to give the verify work.
  rel.drift.relax_fraction = 0.05;
  rel.drift.sigma_relax = 0.7;
  ReliabilityEngine engine(memory, rel);
  mlc::VerifyPolicy policy;
  policy.enabled = true;
  policy.max_passes = 3;
  controller.attach_reliability(&engine, policy);
  controller.form();

  // The deepest HRS levels relax by the most gap, so the verify must find
  // work on a deep word.
  const std::vector<std::size_t> deep(8, 15);
  const mlc::WordWriteStats stats = controller.write_word_levels(0, deep);
  EXPECT_GE(stats.verify_passes, 1u);
  EXPECT_LE(stats.verify_passes, policy.max_passes);
  EXPECT_GT(stats.reprogrammed, 0u);
  EXPECT_GT(stats.latency, mlc::kVerifyWait);  // the wait is charged to the write
}

TEST_F(ReliabilityControllerFixture, VerifyReducesPostRelaxationDecodeErrors) {
  // Twin setups from identical seeds: the only difference is the verify loop.
  array::FastArray memory_on(2, 8, oxram::OxramParams{}, oxram::OxramVariability{},
                             oxram::StackConfig{}, 314);
  mlc::MemoryController controller_on(memory_on, programmer);
  ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  rel.drift.relax_fraction = 0.05;  // amplified so 16 cells show the effect
  rel.drift.sigma_relax = 0.7;
  ReliabilityEngine engine_off(memory, rel);
  ReliabilityEngine engine_on(memory_on, rel);
  mlc::VerifyPolicy policy;
  policy.enabled = true;
  policy.max_passes = 3;
  controller.attach_reliability(&engine_off);  // notifications only, no verify
  controller_on.attach_reliability(&engine_on, policy);
  controller.form();
  controller_on.form();

  const std::vector<std::size_t> deep(8, 15);
  controller.write_word_levels(0, deep);
  controller.write_word_levels(1, deep);
  controller_on.write_word_levels(0, deep);
  controller_on.write_word_levels(1, deep);

  // Give the fast component time to express in both, then compare fidelity.
  engine_off.advance(1.0);
  engine_on.advance(1.0);
  std::size_t errors_off = 0;
  std::size_t errors_on = 0;
  for (std::size_t row = 0; row < 2; ++row) {
    const std::vector<std::size_t> off = controller.read_word_levels(row);
    const std::vector<std::size_t> on = controller_on.read_word_levels(row);
    for (std::size_t col = 0; col < 8; ++col) {
      errors_off += off[col] != 15;
      errors_on += on[col] != 15;
    }
  }
  EXPECT_GT(errors_off, 0u);  // unverified deep words drift out of band
  EXPECT_LT(errors_on, errors_off);
}

TEST_F(ReliabilityControllerFixture, ScrubRepairsRetentionDrift) {
  ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  ReliabilityEngine engine(memory, rel);
  controller.attach_reliability(&engine);
  controller.form();

  std::vector<std::size_t> word0 = {15, 14, 13, 12, 11, 10, 9, 8};
  std::vector<std::size_t> word1 = {8, 9, 10, 11, 12, 13, 14, 15};
  controller.write_word_levels(0, word0);
  controller.write_word_levels(1, word1);

  engine.advance(1e6);  // ~12 days of retention: deep levels cross bands

  std::size_t errors_before = 0;
  {
    const std::vector<std::size_t> read0 = controller.read_word_levels(0);
    const std::vector<std::size_t> read1 = controller.read_word_levels(1);
    for (std::size_t col = 0; col < 8; ++col) {
      errors_before += read0[col] != word0[col];
      errors_before += read1[col] != word1[col];
    }
  }
  EXPECT_GT(errors_before, 0u);

  const mlc::ScrubStats scrub = controller.scrub_all();
  EXPECT_EQ(scrub.words, 2u);
  EXPECT_EQ(scrub.cells_checked, 16u);
  EXPECT_GT(scrub.cells_scrubbed, 0u);
  EXPECT_GT(scrub.energy, 0.0);

  std::size_t errors_after = 0;
  {
    const std::vector<std::size_t> read0 = controller.read_word_levels(0);
    const std::vector<std::size_t> read1 = controller.read_word_levels(1);
    for (std::size_t col = 0; col < 8; ++col) {
      errors_after += read0[col] != word0[col];
      errors_after += read1[col] != word1[col];
    }
  }
  EXPECT_LT(errors_after, errors_before);
}

TEST_F(ReliabilityControllerFixture, ScrubSkipsNeverWrittenWords) {
  ReliabilityConfig rel;
  ReliabilityEngine engine(memory, rel);
  controller.attach_reliability(&engine);
  controller.form();
  const std::vector<std::size_t> word(8, 7);
  controller.write_word_levels(0, word);
  const mlc::ScrubStats untouched = controller.scrub_word(1);
  EXPECT_EQ(untouched.words, 0u);
  EXPECT_EQ(untouched.cells_checked, 0u);
  const mlc::ScrubStats all = controller.scrub_all();
  EXPECT_EQ(all.words, 1u);  // only the written row is visited
  EXPECT_THROW(controller.scrub_word(9), InvalidArgumentError);
}

}  // namespace
}  // namespace oxmlc::reliability
