// Failure injection: the system's behaviour when things go wrong — stuck
// cells, unreachable references, gross comparator offsets, saturated sense
// amps, timed-out terminations. The paper's robustness story is statistical;
// these tests pin the *deterministic* failure semantics a memory controller
// would have to handle.
#include <gtest/gtest.h>

#include "mlc/controller.hpp"
#include "mlc/mc_study.hpp"
#include "oxram/presets.hpp"
#include "util/error.hpp"

namespace oxmlc {
namespace {

mlc::QlcConfig make_config() { return mlc::QlcConfig::paper_default(4, 13); }

// ---------------------------------------------------------------------------
// unterminated writes
// ---------------------------------------------------------------------------

TEST(FailureInjection, ReferenceAboveReachableCurrentNeverTerminates) {
  // An IrefR above the stack's initial current: the comparator never sees a
  // falling crossing. The write must report terminated=false and leave the
  // cell deep (the pulse ran its full width), not crash or hang.
  oxram::FastCell cell =
      oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
  cell.apply_set(oxram::SetOperation{});
  oxram::ResetOperation op;
  op.iref = 500e-6;  // far above any reachable cell current
  op.pulse.width = 2e-6;
  const auto result = cell.apply_reset(op);
  // The plateau begins with I < iref, which the comparator (correctly) treats
  // as an immediate stop: a grossly mis-programmed DAC terminates instantly
  // rather than running the full destructive pulse.
  EXPECT_TRUE(result.terminated);
  EXPECT_LT(result.t_terminate, 0.1e-6);
  EXPECT_LT(cell.read().r_cell, 30e3);  // cell effectively untouched
}

TEST(FailureInjection, TooShortPulseTimesOutHonestly) {
  // Deep target + short pulse: termination cannot fire in time.
  oxram::FastCell cell =
      oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
  cell.apply_set(oxram::SetOperation{});
  oxram::ResetOperation op;
  op.iref = 6e-6;            // ~3.6 us nominal latency...
  op.pulse.width = 0.5e-6;   // ...but only 0.5 us of plateau
  const auto result = cell.apply_reset(op);
  EXPECT_FALSE(result.terminated);
  EXPECT_DOUBLE_EQ(result.t_terminate, op.pulse.rise + op.pulse.width + op.pulse.fall);
  // The programmer surfaces this through ProgramOutcome::terminated.
}

TEST(FailureInjection, ProgrammerReportsUnterminatedOutcome) {
  mlc::QlcConfig config = make_config();
  config.reset_op.pulse.width = 0.4e-6;  // sabotaged plateau
  const mlc::QlcProgrammer programmer(config);
  oxram::FastCell cell =
      oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
  Rng rng(1);
  const auto outcome = programmer.program(cell, 15, rng);
  EXPECT_FALSE(outcome.terminated);
}

// ---------------------------------------------------------------------------
// stuck / dead cells
// ---------------------------------------------------------------------------

TEST(FailureInjection, UnformedCellReadsAsDeepestLevel) {
  // A cell whose FORMING was skipped conducts almost nothing; reads decode it
  // as the deepest state (a detectable stuck-at for a controller scrub).
  const mlc::QlcConfig config = make_config();
  const mlc::QlcProgrammer programmer(config);
  const oxram::OxramParams params;
  oxram::FastCell virgin(params, oxram::StackConfig{}, params.g_virgin, /*virgin=*/true);
  Rng rng(2);
  EXPECT_EQ(programmer.read_level(virgin, rng), config.allocation.count() - 1);
}

TEST(FailureInjection, UnformedCellIgnoresProgramming) {
  const mlc::QlcConfig config = make_config();
  const mlc::QlcProgrammer programmer(config);
  const oxram::OxramParams params;
  oxram::FastCell virgin(params, oxram::StackConfig{}, params.g_virgin, /*virgin=*/true);
  Rng rng(3);
  for (std::size_t level : {0ul, 7ul}) {
    programmer.program(virgin, level, rng);
    EXPECT_TRUE(virgin.virgin());  // SET at 1.2 V cannot form
    EXPECT_EQ(programmer.read_level(virgin, rng), config.allocation.count() - 1);
  }
}

TEST(FailureInjection, StuckLrsCellDecodesAsShallowestLevel) {
  // A short-circuited (cannot-RESET) cell always reads level 0: again a
  // deterministic, detectable signature.
  const mlc::QlcConfig config = make_config();
  const mlc::QlcProgrammer programmer(config);
  const oxram::OxramParams params;
  const oxram::FastCell stuck(params, oxram::StackConfig{}, params.g_min);
  Rng rng(4);
  EXPECT_EQ(programmer.read_level(stuck, rng), 0u);
}

// ---------------------------------------------------------------------------
// gross analog faults
// ---------------------------------------------------------------------------

TEST(FailureInjection, GrossReferenceOffsetShiftsOneLevel) {
  // A +2 uA systematic DAC error (one full ISO-dI step) programs every cell
  // exactly one level shallow — the failure is structured, not random.
  mlc::QlcConfig config = make_config();
  config.termination.mismatch.enabled = false;
  config.variability = oxram::OxramVariability::disabled();
  config.sense = array::SenseAmpModel::ideal();
  const mlc::QlcProgrammer good(config);

  Rng rng(5);
  for (std::size_t level : {3ul, 8ul, 13ul}) {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    // Program with a sabotaged reference: iref(level) + 2 uA == iref(level-1).
    oxram::ResetOperation op = config.reset_op;
    op.iref = config.allocation.levels[level].iref + 2e-6;
    cell.apply_set(config.set_op);
    cell.apply_reset(op);
    EXPECT_EQ(good.read_level(cell, rng), level - 1) << level;
  }
}

TEST(FailureInjection, SaturatedSenseOffsetCorruptsDecodes) {
  // A broken sense amp (offset sigma ~ a full level's current gap) must
  // produce frequent decode errors — the test pins that the model actually
  // injects at decode time rather than silently ignoring the knob.
  mlc::QlcConfig config = make_config();
  config.sense.offset_sigma = 2e-6;
  config.sense.enabled = true;
  const mlc::QlcProgrammer programmer(config);
  Rng rng(6);
  int errors = 0;
  for (int trial = 0; trial < 20; ++trial) {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    const std::size_t level = 4 + (trial % 8);
    programmer.program(cell, level, rng);
    errors += programmer.read_level(cell, rng) != level;
  }
  EXPECT_GT(errors, 3);
}

// ---------------------------------------------------------------------------
// controller-level containment
// ---------------------------------------------------------------------------

TEST(FailureInjection, ControllerSurfacesUnterminatedBits) {
  mlc::QlcConfig config = make_config();
  config.reset_op.pulse.width = 0.4e-6;  // too short for deep levels
  const mlc::QlcProgrammer programmer(config);
  array::FastArray memory(1, 8, oxram::OxramParams{}, oxram::OxramVariability{},
                          oxram::StackConfig{}, 99);
  mlc::MemoryController controller(memory, programmer);
  controller.form();
  const std::vector<std::size_t> deep(8, 15);
  const auto stats = controller.write_word_levels(0, deep);
  EXPECT_EQ(stats.unterminated, 8u);
}

}  // namespace
}  // namespace oxmlc
