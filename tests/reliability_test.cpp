#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "mlc/controller.hpp"
#include "oxram/drift.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace oxmlc::oxram {
namespace {

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
// per-cell aging physics: trajectory draws, read disturb, endurance wear
// ---------------------------------------------------------------------------

TEST(DriftTrajectory, ReanchorDrawsRelaxationThenActivationOnce) {
  // The one draw order: the relaxation amplitude, then (first event only)
  // the drift amplitude.
  const DriftParams drift;
  Rng rng(0xD7A3);
  Rng copy = rng;
  DriftTrajectory trajectory;
  trajectory.reanchor(drift, 1.2e-9, 0.0, rng);
  EXPECT_TRUE(trajectory.programmed);
  EXPECT_EQ(trajectory.relax_amp, sample_relaxation_amplitude(drift, copy));
  EXPECT_EQ(trajectory.drift_amp, sample_drift_amplitude(drift, copy));

  // A later event re-anchors, clears the disturb offset and re-draws only the
  // per-event amplitude; the per-cell activation is a device property.
  const double activation = trajectory.drift_amp;
  trajectory.offset = -1e-12;
  trajectory.reanchor(drift, 1.8e-9, 10.0, rng);
  EXPECT_EQ(trajectory.anchor, 1.8e-9);
  EXPECT_EQ(trajectory.t_anchor, 10.0);
  EXPECT_EQ(trajectory.offset, 0.0);
  EXPECT_EQ(trajectory.relax_amp, sample_relaxation_amplitude(drift, copy));
  EXPECT_EQ(trajectory.drift_amp, activation);
  EXPECT_EQ(rng.next_u64(), copy.next_u64());  // one draw, nothing more
}

TEST(ReadDisturb, NudgesTowardLrs) {
  FastCell cell(OxramParams{}, StackConfig{}, 1.5e-9, /*virgin=*/false);
  const ReadDisturbModel model;

  // 1e12 senses (1e5 s at the 0.3 V READ bias) make the stress visible.
  const double stressed = disturbed_gap(cell, 1.5e-9, 1'000'000'000'000, model);
  EXPECT_LT(stressed, 1.5e-9);
  EXPECT_GE(stressed, cell.params().g_min);

  // At nominal stress a single sense is deliberately negligible.
  EXPECT_NEAR(disturbed_gap(cell, 1.5e-9, 1, model), 1.5e-9, 1e-4 * 1.5e-9);

  // No reads, or the model off, bill nothing.
  EXPECT_EQ(disturbed_gap(cell, 1.5e-9, 0, model), 1.5e-9);
  ReadDisturbModel off;
  off.enabled = false;
  EXPECT_EQ(disturbed_gap(cell, 1.5e-9, 1'000'000'000'000, off), 1.5e-9);
}

TEST(Endurance, WindowCompressesPastOnset) {
  const OxramParams fresh;
  EnduranceModel model;
  model.onset_cycles = 1e3;
  model.loss_per_decade = 0.1;

  // Below and at the onset: untouched.
  EXPECT_DOUBLE_EQ(worn_params(fresh, model, 10).g_min, fresh.g_min);
  EXPECT_DOUBLE_EQ(worn_params(fresh, model, 1000).g_max, fresh.g_max);

  // One decade past onset: 10 % of the window gone, split across both edges.
  const OxramParams one_decade = worn_params(fresh, model, 10000);
  const double window = fresh.g_max - fresh.g_min;
  EXPECT_NEAR(one_decade.g_min, fresh.g_min + 0.05 * window, 1e-15);
  EXPECT_NEAR(one_decade.g_max, fresh.g_max - 0.05 * window, 1e-15);

  // Deep wear saturates at kMaxWindowLoss (0.5) rather than inverting the window.
  const OxramParams saturated = worn_params(fresh, model, 1000000000000ULL);
  EXPECT_NEAR(saturated.g_max - saturated.g_min, 0.5 * window, 1e-15);
  EXPECT_LT(saturated.g_min, saturated.g_max);

  EnduranceModel off = model;
  off.onset_cycles = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(worn_params(fresh, off, 1000000).g_min, fresh.g_min);
}

// ---------------------------------------------------------------------------
// controller aging: the cells a MemoryController manages
// ---------------------------------------------------------------------------

struct ReliabilityControllerFixture : public ::testing::Test {
  ReliabilityControllerFixture()
      : config(mlc::QlcConfig::paper_default(4, 13)), programmer(config) {}

  mlc::QlcConfig config;
  mlc::QlcProgrammer programmer;
};

using ControllerAging = ReliabilityControllerFixture;

TEST_F(ControllerAging, ProgramEventAnchorsAndDrawsAmplitudes) {
  mlc::MemoryController controller(programmer, 2, 2, 99);
  // FORMING is the first program event of every cell.
  const DriftTrajectory& trajectory = controller.trajectory(0, 0);
  EXPECT_TRUE(trajectory.programmed);
  EXPECT_EQ(controller.cycles(0, 0), 1u);
  EXPECT_EQ(trajectory.anchor, controller.array().at(0, 0).gap());
  EXPECT_EQ(trajectory.t_anchor, 0.0);
  EXPECT_GT(trajectory.relax_amp, 0.0);
  EXPECT_GT(trajectory.drift_amp, 0.0);

  // A write re-anchors at the controller clock, re-draws the per-event
  // amplitude and keeps the per-cell activation (a device property, not an
  // event one).
  const double first_relax = trajectory.relax_amp;
  const double activation = trajectory.drift_amp;
  controller.advance(10.0);
  const std::vector<std::size_t> levels = {9, 3};
  controller.write_word_levels(0, levels);
  EXPECT_EQ(controller.cycles(0, 0), 2u);
  EXPECT_EQ(controller.cycles(1, 0), 1u);
  EXPECT_EQ(trajectory.anchor, controller.array().at(0, 0).gap());
  EXPECT_EQ(trajectory.t_anchor, 10.0);
  EXPECT_NE(trajectory.relax_amp, first_relax);
  EXPECT_EQ(trajectory.drift_amp, activation);
}

TEST_F(ControllerAging, AmplitudeStreamsAreOrderIndependent) {
  mlc::MemoryController first(programmer, 2, 2, 7);
  mlc::MemoryController second(programmer, 2, 2, 7);
  // Write the words in different orders; the (seed, cell) streams must agree.
  const std::vector<std::size_t> levels = {12, 5};
  first.write_word_levels(1, levels);
  first.write_word_levels(0, levels);
  second.write_word_levels(0, levels);
  second.write_word_levels(1, levels);
  for (std::size_t row = 0; row < 2; ++row) {
    for (std::size_t col = 0; col < 2; ++col) {
      EXPECT_EQ(first.trajectory(row, col).relax_amp, second.trajectory(row, col).relax_amp);
      EXPECT_EQ(first.trajectory(row, col).drift_amp, second.trajectory(row, col).drift_amp);
    }
  }
}

// Whole-array acceptance: the state advance() writes depends on the
// controller clock only, so two unequal steps land bitwise where one step of
// the same total lands on a twin controller, on 256 cells of every level.
TEST_F(ControllerAging, TwoAdvanceStepsEqualOne) {
  mlc::ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  mlc::MemoryController stepped(programmer, 16, 16, 2024, rel);
  mlc::MemoryController single(programmer, 16, 16, 2024, rel);
  Rng rng(0xBA7C4);
  std::vector<std::size_t> levels(16);
  for (std::size_t row = 0; row < 16; ++row) {
    for (std::size_t& level : levels) level = rng.uniform_index(16);
    stepped.write_word_levels(row, levels);
    single.write_word_levels(row, levels);
  }

  stepped.advance(0.5);
  stepped.advance(999.5);
  single.advance(1000.0);
  for (std::size_t row = 0; row < 16; ++row) {
    for (std::size_t col = 0; col < 16; ++col) {
      const double g = stepped.array().at(row, col).gap();
      EXPECT_LT(g, stepped.trajectory(row, col).anchor);
      const double reference = single.array().at(row, col).gap();
      EXPECT_EQ(std::memcmp(&g, &reference, sizeof(double)), 0)
          << "cell (" << row << ", " << col << "): " << g << " vs " << reference;
    }
  }
}

TEST_F(ControllerAging, EveryCellIsAnchoredAtForming) {
  // No cell of a controller is left unanchored: FORMING is every cell's first
  // program event, so a bake rewrites every cell from its trajectory, written
  // or not.
  mlc::MemoryController controller(programmer, 2, 2, 11);
  const std::vector<std::size_t> levels = {15, 15};
  controller.write_word_levels(0, levels);
  for (std::size_t col = 0; col < 2; ++col) {
    EXPECT_EQ(controller.cycles(0, col), 2u);
    EXPECT_EQ(controller.cycles(1, col), 1u);
    EXPECT_TRUE(controller.trajectory(1, col).programmed);
  }
  const double written = controller.array().at(0, 0).gap();
  controller.advance(1e6);
  EXPECT_LT(controller.array().at(0, 0).gap(), written);
  for (std::size_t row = 0; row < 2; ++row) {
    for (std::size_t col = 0; col < 2; ++col) {
      const oxram::FastCell& cell = controller.array().at(row, col);
      EXPECT_EQ(cell.gap(), controller.trajectory(row, col).gap_at(DriftParams{},
                                                                   cell.params(), 1e6));
    }
  }
}

TEST_F(ControllerAging, EverySenseDisturbsItsCellOnce) {
  mlc::ReliabilityConfig rel;
  rel.drift.enabled = false;  // isolate the disturb channel
  mlc::MemoryController controller(programmer, 1, 2, 5, rel);
  const std::vector<std::size_t> levels = {15, 4};
  controller.write_word_levels(0, levels);
  const FastCell before = controller.array().at(0, 0);

  controller.read_word_levels(0);
  EXPECT_EQ(controller.reads(0, 0), 1u);
  EXPECT_EQ(controller.reads(0, 1), 1u);
  const double disturbed = controller.array().at(0, 0).gap();
  EXPECT_EQ(disturbed, disturbed_gap(before, before.gap(), 1, ReadDisturbModel{}));
  EXPECT_EQ(controller.trajectory(0, 0).offset, disturbed - before.gap());

  // advance() must preserve the accumulated offset (drift disabled here).
  controller.advance(100.0);
  EXPECT_NEAR(controller.array().at(0, 0).gap(), disturbed, 1e-12 * disturbed);

  // With the model off a sense is still counted, but moves nothing.
  rel.read_disturb.enabled = false;
  mlc::MemoryController quiet(programmer, 1, 2, 5, rel);
  quiet.write_word_levels(0, levels);
  const double written = quiet.array().at(0, 0).gap();
  quiet.read_word_levels(0);
  EXPECT_EQ(quiet.reads(0, 0), 1u);
  EXPECT_EQ(quiet.array().at(0, 0).gap(), written);
}

TEST_F(ControllerAging, EnduranceWearCompressesTheCellWindow) {
  mlc::ReliabilityConfig rel;
  rel.endurance.onset_cycles = 10;
  rel.endurance.loss_per_decade = 0.2;
  mlc::MemoryController controller(programmer, 1, 1, 3, rel);
  const OxramParams fresh = controller.array().at(0, 0).params();  // 1 cycle: unworn
  const std::vector<std::size_t> level = {7};
  for (int i = 0; i < 99; ++i) controller.write_word_levels(0, level);
  EXPECT_EQ(controller.cycles(0, 0), 100u);
  const OxramParams& worn = controller.array().at(0, 0).params();
  EXPECT_GT(worn.g_min, fresh.g_min);
  EXPECT_LT(worn.g_max, fresh.g_max);
  EXPECT_EQ(worn.g_min, worn_params(fresh, rel.endurance, 100).g_min);
  EXPECT_EQ(worn.g_max, worn_params(fresh, rel.endurance, 100).g_max);
}

TEST_F(ControllerAging, RejectsOutOfRangeCells) {
  mlc::MemoryController controller(programmer, 2, 2, 1);
  EXPECT_THROW(controller.cycles(2, 0), InvalidArgumentError);
  EXPECT_THROW(controller.reads(0, 2), InvalidArgumentError);
  EXPECT_THROW(controller.trajectory(2, 2), InvalidArgumentError);
  EXPECT_THROW(controller.read_word_levels(2), InvalidArgumentError);
  const std::vector<std::size_t> levels = {1, 2};
  EXPECT_THROW(controller.write_word_levels(2, levels), InvalidArgumentError);
  EXPECT_THROW(controller.advance(-1.0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// controller integration: relaxation-aware verify + scrub
// ---------------------------------------------------------------------------

TEST_F(ReliabilityControllerFixture, RelaxVerifyCatchesTheRelaxationTail) {
  mlc::ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  // Amplified relaxation (cf. the pulled-down wear onset in the endurance
  // example): with a 5 % median most deep-level draws cross the ~16 pm
  // half-band, so an 8-cell word is guaranteed to give the verify work.
  rel.drift.relax_fraction = 0.05;
  rel.drift.sigma_relax = 0.7;
  const std::size_t verify_passes = 3;
  mlc::MemoryController controller(programmer, 2, 8, 314, rel, verify_passes);

  // The deepest HRS levels relax by the most gap, so the verify must find
  // work on a deep word.
  const std::vector<std::size_t> deep(8, 15);
  const mlc::WordWriteStats stats = controller.write_word_levels(0, deep);
  EXPECT_GE(stats.verify_passes, 1u);
  EXPECT_LE(stats.verify_passes, verify_passes);
  EXPECT_GT(stats.reprogrammed, 0u);
  EXPECT_GT(stats.latency, mlc::kVerifyWait);  // the wait is charged to the write
}

TEST_F(ReliabilityControllerFixture, VerifyReducesPostRelaxationDecodeErrors) {
  // Twin setups from identical seeds: the only difference is the verify loop.
  mlc::ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  rel.drift.relax_fraction = 0.05;  // amplified so 16 cells show the effect
  rel.drift.sigma_relax = 0.7;
  mlc::MemoryController controller(programmer, 2, 8, 314, rel);  // no verify
  mlc::MemoryController controller_on(programmer, 2, 8, 314, rel, 3);

  const std::vector<std::size_t> deep(8, 15);
  controller.write_word_levels(0, deep);
  controller.write_word_levels(1, deep);
  controller_on.write_word_levels(0, deep);
  controller_on.write_word_levels(1, deep);

  // Give the fast component time to express in both, then compare fidelity.
  controller.advance(1.0);
  controller_on.advance(1.0);
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
  mlc::ReliabilityConfig rel;
  rel.read_disturb.enabled = false;
  mlc::MemoryController controller(programmer, 2, 8, 314, rel);

  std::vector<std::size_t> word0 = {15, 14, 13, 12, 11, 10, 9, 8};
  std::vector<std::size_t> word1 = {8, 9, 10, 11, 12, 13, 14, 15};
  controller.write_word_levels(0, word0);
  controller.write_word_levels(1, word1);

  controller.advance(1e6);  // ~12 days of retention: deep levels cross bands

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
  mlc::MemoryController controller(programmer, 2, 8, 314);
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
}  // namespace oxmlc::oxram
