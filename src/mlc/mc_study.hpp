// Monte-Carlo level studies: the engine behind Figs. 11/12/13 and Table 3.
//
// One trial = one (D2D-sampled) device instance, SET, then one terminated
// RESET with (C2C + termination-mismatch)-sampled conditions, then a read.
// The paper runs 500 such trials per level.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mlc/margins.hpp"
#include "mlc/program.hpp"

namespace oxmlc::mlc {

// The depth, seed and pool size of one Monte-Carlo study.
struct McOptions {
  std::size_t trials = 500;  // the paper's MC depth (500 runs per level)
  std::uint64_t seed = 0xA21Cull;
  std::size_t threads = 0;  // 0 = hardware_concurrency
};

struct McStudyConfig {
  QlcConfig qlc;  // the operating point: devices are sampled from its cell
  McOptions mc;   // trials per level, seed
};

// The paper's study: QlcConfig::paper_default(bits) at `trials` per level.
McStudyConfig paper_mc_study(std::size_t bits = 4, std::size_t trials = 500);

// One MC trial's word, before programming: one formed cell per level of the
// allocation, level k at index k. Level k's device is sampled on its own
// rng, derived from (mc.seed, k, trial) alone, and the cell keeps that rng
// for every later draw, so adding levels never reshuffles existing ones.
struct StudyWord {
  std::vector<oxram::FastCell> cells;
  std::vector<Rng> rngs;
  std::vector<std::size_t> levels;
};

// The word trial `trial` of `config` programs: the level study
// (run_level_study) and the retention sweep (mlc/retention.hpp) both build
// their trials here, so they consume bit-identical random streams.
StudyWord sample_study_word(const McStudyConfig& config, std::size_t trial);

// Runs the study for every level of the allocation; distributions are ordered
// by level value (ascending resistance). One MC trial programs its
// sample_study_word as a single program_word.
std::vector<LevelDistribution> run_level_study(const McStudyConfig& config);

}  // namespace oxmlc::mlc
