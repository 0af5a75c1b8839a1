#include "mlc/controller.hpp"

#include <algorithm>
#include <numeric>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace oxmlc::mlc {
namespace {

struct ControllerMetrics {
  obs::Counter& advances = obs::registry().counter("reliability.advances");
  obs::Counter& lanes_advanced = obs::registry().counter("reliability.lanes_advanced");
  obs::Counter& reads_disturbed = obs::registry().counter("reliability.reads_disturbed");
  obs::Counter& program_events = obs::registry().counter("reliability.program_events");
  obs::Timer& advance_time = obs::registry().timer("reliability.advance_time");
  obs::Counter& verify_passes = obs::registry().counter("reliability.verify_passes");
  obs::Counter& verify_resenses = obs::registry().counter("reliability.verify_resenses");
  obs::Counter& verify_reprograms = obs::registry().counter("reliability.verify_reprograms");
  obs::Counter& scrub_words = obs::registry().counter("reliability.scrub_words");
  obs::Counter& cells_scrubbed = obs::registry().counter("reliability.cells_scrubbed");

  static ControllerMetrics& get() {
    static ControllerMetrics metrics;
    return metrics;
  }
};

// Per-cell amplitude stream: same construction style as FastArray's
// position-derived streams — deterministic given (seed, cell index),
// independent of access order.
Rng cell_stream(std::uint64_t seed, std::size_t cell_index) {
  return Rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(cell_index) + 1)));
}

}  // namespace

MemoryController::MemoryController(const QlcProgrammer& programmer, std::size_t words,
                                   std::size_t cells_per_word, std::uint64_t seed,
                                   const ReliabilityConfig& reliability,
                                   std::size_t verify_passes)
    : programmer_(programmer),
      array_(words, cells_per_word, programmer.config().nominal_cell,
             programmer.config().variability, programmer.config().stack, seed),
      reliability_(reliability),
      verify_passes_(verify_passes),
      written_levels_(words) {
  aging_.resize(array_.size());
  for (std::size_t i = 0; i < aging_.size(); ++i) {
    aging_[i].fresh = array_.at(i / array_.cols(), i % array_.cols()).params();
    aging_[i].rng = cell_stream(reliability_.seed, i);
  }
  array_.form_all();
  // FORMING is a program event: anchor every cell's drift trajectory at the
  // freshly formed LRS gap.
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    for (std::size_t col = 0; col < array_.cols(); ++col) {
      on_programmed(row, col);
    }
  }
}

void MemoryController::on_programmed(std::size_t row, std::size_t col) {
  CellAging& aging = aging_[array_.index(row, col)];
  oxram::FastCell& cell = array_.at(row, col);
  aging.trajectory.reanchor(reliability_.drift, cell.gap(), now_, aging.rng);
  ++aging.cycles;
  cell.mutable_params() = oxram::worn_params(aging.fresh, reliability_.endurance, aging.cycles);
  ControllerMetrics::get().program_events.add();
}

void MemoryController::advance(double dt) {
  OXMLC_CHECK(dt >= 0.0, "MemoryController::advance: dt must be non-negative");
  ControllerMetrics& metrics = ControllerMetrics::get();
  metrics.advances.add();
  obs::ScopedTimer timer(metrics.advance_time);

  now_ += dt;
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    for (std::size_t col = 0; col < array_.cols(); ++col) {
      oxram::FastCell& cell = array_.at(row, col);
      cell.set_gap(aging_[array_.index(row, col)].trajectory.gap_at(reliability_.drift,
                                                                     cell.params(), now_));
    }
  }
  metrics.lanes_advanced.add(array_.size());
}

const oxram::DriftTrajectory& MemoryController::trajectory(std::size_t row,
                                                            std::size_t col) const {
  return aging_[array_.index(row, col)].trajectory;
}
std::uint64_t MemoryController::cycles(std::size_t row, std::size_t col) const {
  return aging_[array_.index(row, col)].cycles;
}
std::uint64_t MemoryController::reads(std::size_t row, std::size_t col) const {
  return aging_[array_.index(row, col)].reads;
}

std::vector<std::size_t> MemoryController::drifted_columns(
    std::size_t row, std::span<const std::size_t> expected) {
  const std::vector<std::size_t> decoded = read_word_levels(row);
  std::vector<std::size_t> drifted;
  for (std::size_t col = 0; col < decoded.size(); ++col) {
    if (decoded[col] != expected[col]) drifted.push_back(col);
  }
  return drifted;
}

std::vector<ProgramOutcome> MemoryController::program_columns(
    std::size_t row, std::span<const std::size_t> cols,
    std::span<const std::size_t> levels) {
  std::vector<oxram::FastCell*> cells(cols.size());
  std::vector<Rng*> rngs(cols.size());
  std::vector<std::size_t> target(cols.size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    cells[k] = &array_.at(row, cols[k]);
    rngs[k] = &array_.rng_at(row, cols[k]);
    target[k] = levels[cols[k]];
  }
  std::vector<ProgramOutcome> outcomes = programmer_.program_word(cells, target, rngs);
  for (std::size_t col : cols) on_programmed(row, col);
  return outcomes;
}

WordWriteStats MemoryController::write_word_levels(std::size_t row,
                                                   std::span<const std::size_t> levels) {
  OXMLC_CHECK(levels.size() == array_.cols(),
              "write_word_levels: need one level per bit line");
  // The whole word goes through the batched programmer: one SET batch, one
  // parallel RST batch with per-bit-line termination masking — the same flow
  // the paper's control logic drives, and the fast path for array-scale
  // writes. Outcomes match per-cell program() calls to solver tolerance.
  std::vector<std::size_t> all_columns(array_.cols());
  std::iota(all_columns.begin(), all_columns.end(), std::size_t{0});
  const std::vector<ProgramOutcome> outcomes = program_columns(row, all_columns, levels);

  WordWriteStats stats;
  for (const ProgramOutcome& outcome : outcomes) {
    stats.energy += outcome.energy + outcome.set_energy;
    // Parallel RST through the shared SL: the word is done when the slowest
    // bit line's termination fires.
    stats.latency = std::max(stats.latency, outcome.latency);
    stats.unterminated += outcome.terminated ? 0 : 1;
  }
  written_levels_[row].assign(levels.begin(), levels.end());
  for (std::size_t pass = 0; pass < verify_passes_; ++pass) {
    ControllerMetrics& metrics = ControllerMetrics::get();
    // Let the fast relaxation express before judging the write — an
    // immediate verify would pass every cell and catch nothing.
    advance(kVerifyWait);
    stats.latency += kVerifyWait;
    ++stats.verify_passes;
    metrics.verify_passes.add();
    const std::vector<std::size_t> drifted = drifted_columns(row, levels);
    metrics.verify_resenses.add(array_.cols());
    if (drifted.empty()) break;
    const std::vector<ProgramOutcome> redo = program_columns(row, drifted, levels);
    double redo_latency = 0.0;
    for (const ProgramOutcome& outcome : redo) {
      stats.energy += outcome.energy + outcome.set_energy;
      redo_latency = std::max(redo_latency, outcome.latency);
      stats.unterminated += outcome.terminated ? 0 : 1;
    }
    stats.latency += redo_latency;
    stats.reprogrammed += drifted.size();
    metrics.verify_reprograms.add(drifted.size());
  }
  total_energy_ += stats.energy;
  ++words_written_;
  return stats;
}

std::vector<std::size_t> MemoryController::read_word_levels(std::size_t row) {
  std::vector<std::size_t> levels;
  levels.reserve(array_.cols());
  for (std::size_t col = 0; col < array_.cols(); ++col) {
    CellAging& aging = aging_[array_.index(row, col)];
    oxram::FastCell& cell = array_.at(row, col);
    ++aging.reads;
    if (reliability_.read_disturb.enabled) {
      // The sense disturbs the cell before it decodes it.
      const double gap = cell.gap();
      const double disturbed = oxram::disturbed_gap(cell, gap, 1, reliability_.read_disturb);
      aging.trajectory.offset += disturbed - gap;
      cell.set_gap(disturbed);
      ControllerMetrics::get().reads_disturbed.add();
    }
    levels.push_back(programmer_.read_level(cell, array_.rng_at(row, col)));
  }
  return levels;
}

ScrubStats MemoryController::scrub_word(std::size_t row) {
  OXMLC_CHECK(row < array_.rows(),
              "scrub_word: word (" + std::to_string(row) + ", 0) out of range for " +
                  std::to_string(array_.rows()) + "x" + std::to_string(array_.cols()) +
                  " array");
  ScrubStats stats;
  const std::vector<std::size_t>& expected = written_levels_[row];
  if (expected.empty()) {
    ++stats.words_skipped;  // never written through this controller
    return stats;
  }
  ControllerMetrics& metrics = ControllerMetrics::get();
  ++stats.words;
  metrics.scrub_words.add();
  stats.cells_checked += array_.cols();
  const std::vector<std::size_t> drifted = drifted_columns(row, expected);
  if (!drifted.empty()) {
    const std::vector<ProgramOutcome> redo = program_columns(row, drifted, expected);
    for (const ProgramOutcome& outcome : redo) {
      stats.energy += outcome.energy + outcome.set_energy;
    }
    stats.cells_scrubbed += drifted.size();
    metrics.cells_scrubbed.add(drifted.size());
  }
  total_energy_ += stats.energy;
  return stats;
}

ScrubStats MemoryController::scrub_all() {
  ScrubStats total;
  for (std::size_t row = 0; row < array_.rows(); ++row) {
    const ScrubStats stats = scrub_word(row);
    total.words += stats.words;
    total.words_skipped += stats.words_skipped;
    total.cells_checked += stats.cells_checked;
    total.cells_scrubbed += stats.cells_scrubbed;
    total.energy += stats.energy;
  }
  return total;
}

}  // namespace oxmlc::mlc
