#include "memsys/fidelity.hpp"

#include <algorithm>

#include "array/bank_write_path.hpp"
#include "mc/runner.hpp"
#include "mlc/controller.hpp"
#include "oxram/params.hpp"
#include "reliability/engine.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace oxmlc::memsys {
namespace {

// Accelerated retention bake between the witness's scrub rounds.
constexpr double kWitnessBakeS = 1e6;

}  // namespace

FidelityEngine::FidelityEngine(const GeometryConfig& geometry, FidelityConfig config)
    : geometry_(geometry),
      config_(config),
      programmer_(mlc::QlcConfig::paper_default(geometry.bits_per_cell)) {
  geometry_.validate();
  OXMLC_CHECK(config_.word_sample_period > 0, "FidelityConfig: word_sample_period must be > 0");
  OXMLC_CHECK(config_.mna_sample_period > 0, "FidelityConfig: mna_sample_period must be > 0");
  OXMLC_CHECK(config_.witness_rows >= 2,
              "FidelityConfig: witness_rows must be >= 2 (one row stays unwritten)");
}

bool FidelityEngine::is_word_sample(std::size_t write_ordinal) const {
  return write_ordinal % config_.word_sample_period == 0 &&
         write_ordinal / config_.word_sample_period < config_.word_max_samples;
}

bool FidelityEngine::is_mna_sample(std::size_t write_ordinal) const {
  return write_ordinal % config_.mna_sample_period == 0 &&
         write_ordinal / config_.mna_sample_period < config_.mna_max_samples;
}

std::vector<std::size_t> FidelityEngine::levels_for(std::uint64_t data) const {
  std::vector<std::size_t> levels(geometry_.cells_per_word);
  for (std::size_t cell = 0; cell < levels.size(); ++cell) {
    levels[cell] = payload_level(geometry_, data, cell);
  }
  return levels;
}

namespace {

struct WordSampleOutcome {
  std::size_t decode_errors = 0;
  std::size_t unterminated = 0;
  double latency_s = 0.0;  // slowest bit of the word
  double energy_j = 0.0;   // summed over the word
};

struct MnaSampleOutcome {
  bool terminated = true;  // every bit line's comparator fired
  double latency_s = 0.0;  // slowest bit line's termination time
  double energy_j = 0.0;   // SL-driver source energy
};

}  // namespace

WordTierReport FidelityEngine::run_word_tier(std::span<const WordSample> samples) const {
  WordTierReport report;
  if (samples.empty()) return report;
  // Index-addressed results + sequential reduction: the parallel_for
  // determinism contract (each outcome depends only on (seed, trace_index)).
  std::vector<WordSampleOutcome> outcomes(samples.size());
  const mlc::QlcConfig& qlc = programmer_.config();
  util::parallel_for(
      samples.size(), config_.threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const WordSample& sample = samples[i];
          Rng rng = mc::trial_rng(config_.seed, sample.trace_index);
          const std::vector<std::size_t> levels = levels_for(sample.data);
          // Fresh D2D-sampled word, then one split stream per bit line; the
          // whole draw order is a function of the trace index alone.
          std::vector<oxram::FastCell> cells;
          cells.reserve(levels.size());
          for (std::size_t c = 0; c < levels.size(); ++c) {
            const oxram::OxramParams device =
                oxram::sample_device(qlc.nominal_cell, qlc.variability, rng);
            cells.push_back(oxram::FastCell::formed_lrs(device, qlc.stack));
          }
          std::vector<Rng> cell_rngs;
          cell_rngs.reserve(levels.size());
          for (std::size_t c = 0; c < levels.size(); ++c) cell_rngs.push_back(rng.split());
          std::vector<oxram::FastCell*> cell_ptrs(levels.size());
          std::vector<Rng*> rng_ptrs(levels.size());
          for (std::size_t c = 0; c < levels.size(); ++c) {
            cell_ptrs[c] = &cells[c];
            rng_ptrs[c] = &cell_rngs[c];
          }
          const std::vector<mlc::ProgramOutcome> programmed =
              programmer_.program_word(cell_ptrs, levels, rng_ptrs);
          WordSampleOutcome& outcome = outcomes[i];
          for (std::size_t c = 0; c < programmed.size(); ++c) {
            const mlc::ProgramOutcome& cell_outcome = programmed[c];
            outcome.latency_s = std::max(outcome.latency_s, cell_outcome.latency);
            outcome.energy_j += cell_outcome.energy + cell_outcome.set_energy;
            if (!cell_outcome.terminated) ++outcome.unterminated;
            if (programmer_.read_level(cells[c], cell_rngs[c]) != levels[c]) {
              ++outcome.decode_errors;
            }
          }
        }
      });
  report.samples = samples.size();
  report.cells = samples.size() * geometry_.cells_per_word;
  for (const WordSampleOutcome& outcome : outcomes) {
    report.decode_errors += outcome.decode_errors;
    report.unterminated += outcome.unterminated;
    report.mean_latency_s += outcome.latency_s;
    report.max_latency_s = std::max(report.max_latency_s, outcome.latency_s);
    report.mean_energy_j += outcome.energy_j;
  }
  report.mean_latency_s /= static_cast<double>(samples.size());
  report.mean_energy_j /= static_cast<double>(samples.size());
  return report;
}

MnaTierReport FidelityEngine::run_mna_tier(std::span<const WordSample> samples) const {
  MnaTierReport report;
  if (samples.empty()) return report;
  const mlc::QlcConfig& qlc = programmer_.config();
  const auto run_sample = [&](const WordSample& sample) {
    const std::vector<std::size_t> levels = levels_for(sample.data);
    // The whole word at once: cells_per_word columns on one selected row,
    // each bit line terminated at its own level's IrefR — the paper's
    // word-parallel MLC RST, not a single-cell proxy. The bordered-block
    // solver (num::BlockSchurLu) is what makes 10x the sample count fit the
    // wall-clock budget the old monolithic single-cell tier had.
    array::BankWritePathConfig bank;
    bank.cell = qlc.nominal_cell;
    bank.columns = levels.size();
    // Physically a bank is tiled into kReferenceRows-deep subarrays; the
    // write path drives one subarray's column, not the whole logical bank.
    bank.rows = std::min(geometry_.rows_per_bank, array::kReferenceRows);
    bank.bl_segments = 4;  // fidelity-appropriate lumping, keeps blocks small
    bank.irefs.reserve(levels.size());
    for (const std::size_t level : levels) {
      bank.irefs.push_back(qlc.allocation.levels[level].iref);
    }
    // Stretch the plateau past the deepest level's ~4 us termination so the
    // comparators, not the horizon, end the pulse.
    bank.pulse_width = 4.5e-6;
    bank.t_stop = 4.8e-6;
    // Once the last comparator fires the cells are cut off; the remaining
    // plateau is pure wall-clock, and cutting it is what keeps 20 samples
    // inside the replay budget.
    bank.stop_after_terminated = 50e-9;
    bank.hierarchical = true;
    const array::BankWritePathResult result = array::BankWritePath(bank).run();
    MnaSampleOutcome outcome;
    for (const array::ColumnResult& column : result.columns) {
      if (column.terminated) {
        outcome.latency_s = std::max(outcome.latency_s, column.t_terminate);
      } else {
        outcome.terminated = false;
      }
    }
    outcome.energy_j = result.energy_source;
    return outcome;
  };
  // One bank transient per sample on the pool. Each sample builds its own
  // circuit and solver and writes only its own outcome; the reduction below
  // runs in ascending sample order, so the report is bit-identical at any
  // thread count.
  std::vector<MnaSampleOutcome> outcomes(samples.size());
  util::parallel_for(samples.size(), config_.threads,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         outcomes[i] = run_sample(samples[i]);
                       }
                     });
  report.samples = samples.size();
  for (const MnaSampleOutcome& outcome : outcomes) {
    if (outcome.terminated) ++report.terminated;
    report.mean_t_terminate_s += outcome.latency_s;
    report.mean_energy_j += outcome.energy_j;
  }
  report.mean_t_terminate_s /= static_cast<double>(report.samples);
  report.mean_energy_j /= static_cast<double>(report.samples);
  return report;
}

WitnessReport FidelityEngine::run_witness(std::span<const WordSample> samples) const {
  WitnessReport report;
  const mlc::QlcConfig& qlc = programmer_.config();
  array::FastArray witness(config_.witness_rows, geometry_.cells_per_word, qlc.nominal_cell,
                           qlc.variability, qlc.stack, config_.seed ^ 0x57495453ull);
  mlc::MemoryController controller(witness, programmer_);
  reliability::ReliabilityConfig rel_config;
  rel_config.seed = config_.seed ^ 0x52454C49ull;
  reliability::ReliabilityEngine engine(witness, rel_config);
  controller.attach_reliability(&engine);
  controller.form();
  // Program all rows but the last from sampled payloads (or a seeded stream
  // when the trace carried no writes); the last row stays unwritten so the
  // scrub loop's words_skipped accounting is always exercised.
  Rng fallback(config_.seed ^ 0x46414C4Cull);
  const std::size_t written_rows = config_.witness_rows - 1;
  for (std::size_t row = 0; row < written_rows; ++row) {
    const std::uint64_t data =
        samples.empty() ? fallback.next_u64() : samples[row % samples.size()].data;
    controller.write_word_levels(row, levels_for(data));
    ++report.words_written;
  }
  for (std::size_t epoch = 0; epoch < config_.witness_scrub_epochs; ++epoch) {
    engine.advance(kWitnessBakeS);
    const mlc::ScrubStats stats = controller.scrub_all();
    report.scrub_words += stats.words;
    report.cells_checked += stats.cells_checked;
    report.cells_scrubbed += stats.cells_scrubbed;
    report.words_skipped += stats.words_skipped;
    report.scrub_energy_j += stats.energy;
  }
  return report;
}

}  // namespace oxmlc::memsys
