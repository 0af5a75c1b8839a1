// Monte-Carlo level studies: the engine behind Figs. 11/12/13 and Table 3.
//
// One trial = one (D2D-sampled) device instance, SET, then one terminated
// RESET with (C2C + termination-mismatch)-sampled conditions, then a read.
// The paper runs 500 such trials per level.
#pragma once

#include "mc/runner.hpp"
#include "mlc/margins.hpp"
#include "mlc/program.hpp"

namespace oxmlc::mlc {

struct McStudyConfig {
  QlcConfig qlc;     // the operating point: devices are sampled from its cell
  mc::McOptions mc;  // trials per level, seed
};

// The paper's study: QlcConfig::paper_default(bits) at `trials` per level.
McStudyConfig paper_mc_study(std::size_t bits = 4, std::size_t trials = 500);

// Independent seed per level so adding levels never reshuffles existing ones.
// Shared by the level study and the retention sweep (mlc/retention.hpp) so
// both consume bit-identical random streams for the same (seed, level,
// trial).
std::uint64_t study_level_seed(std::uint64_t base, std::size_t level);

// Runs the study for every level of the allocation; distributions are ordered
// by level value (ascending resistance). One MC trial programs every level as
// a single program_word; each level draws from its own (mc.seed, level,
// trial)-derived rng, so levels are independent and reproducible.
std::vector<LevelDistribution> run_level_study(const McStudyConfig& config);

}  // namespace oxmlc::mlc
