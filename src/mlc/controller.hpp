// Word-level memory controller: the "modified control logic" of Fig. 6.
//
// The paper's word programming flow (§4.2): an 8-bit word is addressed, every
// cell of the word is first SET, then one RESET is applied in parallel
// through the shared source line while each bit line's write-termination
// circuit stops its own bit when its cell current reaches the IrefR selected
// by the data bus ("multi-bit access is guaranteed as one RST write
// termination is associated with a single bit-line"). The SL pulse is sized
// for the slowest level; word latency is therefore the max per-bit
// termination time and word energy the sum.
//
// Managed operation: the controller owns its array and ages it. Per cell it
// keeps the drift trajectory of oxram/drift.hpp, the cycle and read counts,
// the pre-wear D2D parameters and an amplitude stream derived from
// (ReliabilityConfig::seed, cell index), so the draws do not depend on the
// order cells are touched in. After every program event, FORMING included,
// it re-anchors the cell's trajectory at its new gap on the controller
// clock and applies endurance wear to the cell's parameters; before every
// sense it applies one read disturb; advance() moves the clock and rewrites
// every cell from its trajectory. Two policies sit on top of the plain word
// flow:
//
//  * relaxation-aware verify (verify_passes, after arXiv:2301.08516): the
//    fast post-program relaxation is a stochastic per-event amplitude, so
//    instead of verifying immediately — when nothing has moved yet — the
//    controller waits kVerifyWait (long enough for the fast component to
//    mostly express), re-senses the word, and re-terminates only the cells
//    whose relaxation draw carried them out of their IrefR band. Each
//    re-program gets a fresh draw; the loop is a selection filter on the
//    relaxation tail, which is what recovers the inter-level window.
//  * scrub (scrub_word / scrub_all): re-senses words against their recorded
//    written levels at any later time and re-programs the cells that slow
//    retention drift has carried across a decode threshold — the refresh
//    loop of a managed-reliability controller.
//
// Telemetry: reliability.* counters/timers in the oxmlc.metrics.v1 registry
// (advances, lanes_advanced, reads_disturbed, program_events, advance_time,
// and the verify and scrub counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "array/fast_array.hpp"
#include "mlc/program.hpp"
#include "oxram/drift.hpp"
#include "util/rng.hpp"

namespace oxmlc::mlc {

// How the controller's cells age: the drift law, read disturb per sense,
// endurance wear per program event, and the seed of the per-cell amplitude
// streams.
struct ReliabilityConfig {
  oxram::DriftParams drift;
  oxram::ReadDisturbModel read_disturb;
  oxram::EnduranceModel endurance;
  std::uint64_t seed = 0x5EED5EEDULL;
};

struct WordWriteStats {
  double energy = 0.0;          // summed over the word's cells (SET + RST)
  double latency = 0.0;         // slowest bit's termination time (parallel RST)
  std::size_t unterminated = 0; // bits whose RST timed out (should be 0)
  std::size_t verify_passes = 0;  // relaxation-verify re-sense rounds executed
  std::size_t reprogrammed = 0;   // cells re-terminated by the verify loop
};

struct ScrubStats {
  std::size_t words = 0;          // words re-sensed
  std::size_t words_skipped = 0;  // words never written, hence not re-sensed
  std::size_t cells_checked = 0;
  std::size_t cells_scrubbed = 0; // cells found out of band and re-terminated
  double energy = 0.0;            // SET + RST energy of the re-programs
};

class MemoryController {
 public:
  // A managed array of `words` words of `cells_per_word` cells: each row is a
  // word and every column one bit line with its own termination circuit (the
  // paper's 8x8 array: words_per_row = 1). The constructor samples the cells
  // from programmer.config()'s nominal cell, variability and stack (array
  // seed `seed`) and FORMs the whole array, anchoring each cell's drift
  // trajectory at its formed LRS gap (FORMING is a program event); the cells
  // then age as `reliability` says. Each word write is
  // followed by `verify_passes` relaxation-aware verify passes (0 = no
  // verify), their energy and latency charged to its WordWriteStats. Each
  // pass waits kVerifyWait, re-senses the whole word and re-terminates the
  // cells off their level, the last pass included (DriftingWord::relax_verify's
  // last pass only senses).
  MemoryController(const QlcProgrammer& programmer, std::size_t words,
                   std::size_t cells_per_word, std::uint64_t seed,
                   const ReliabilityConfig& reliability = {},
                   std::size_t verify_passes = 0);

  std::size_t word_count() const { return array_.rows(); }
  std::size_t cells_per_word() const { return array_.cols(); }

  // The managed cells.
  const array::FastArray& array() const { return array_; }

  // Moves the controller clock by dt >= 0 and rewrites every cell's gap from
  // its trajectory (DriftTrajectory::gap_at at the new clock).
  void advance(double dt);

  // Per-cell aging state, for tests and analysis tooling. Out-of-range cells
  // throw with the phrasing of FastArray::at().
  const oxram::DriftTrajectory& trajectory(std::size_t row, std::size_t col) const;
  std::uint64_t cycles(std::size_t row, std::size_t col) const;
  std::uint64_t reads(std::size_t row, std::size_t col) const;

  // Writes one word of per-cell levels (size = cells_per_word).
  WordWriteStats write_word_levels(std::size_t row, std::span<const std::size_t> levels);

  // Reads the word back as per-cell levels; each sense disturbs its cell
  // first.
  std::vector<std::size_t> read_word_levels(std::size_t row);

  // Scrub: re-sense a previously written word against its recorded levels and
  // re-terminate any cell that drifted across a decode threshold. Words never
  // written through this controller are not re-sensed; they are counted in
  // ScrubStats::words_skipped so a scrub pass over a sparsely-written array
  // stays auditable. Out-of-range rows throw with the (row, col) + dims
  // phrasing of FastArray::at().
  ScrubStats scrub_word(std::size_t row);
  ScrubStats scrub_all();

  // Running totals across all operations (energy accounting for EXPERIMENTS).
  double total_energy() const { return total_energy_; }
  std::size_t words_written() const { return words_written_; }

 private:
  // One cell's aging state.
  struct CellAging {
    oxram::DriftTrajectory trajectory;
    std::uint64_t cycles = 0;
    std::uint64_t reads = 0;
    oxram::OxramParams fresh;  // pre-wear D2D parameters
    Rng rng;                   // (seed, cell index) amplitude stream
  };

  // Program event of one cell: re-anchors its trajectory at its gap and the
  // controller clock, counts the cycle and wears its parameters.
  void on_programmed(std::size_t row, std::size_t col);
  // Re-senses the word; returns the columns whose decode disagrees with
  // `expected` (each sense disturbs its cell first).
  std::vector<std::size_t> drifted_columns(std::size_t row,
                                           std::span<const std::size_t> expected);
  // Batched program of a column subset (a whole word write, or the cells a
  // verify or scrub pass re-terminates), each cell then a program event.
  std::vector<ProgramOutcome> program_columns(std::size_t row,
                                              std::span<const std::size_t> cols,
                                              std::span<const std::size_t> levels);

  const QlcProgrammer& programmer_;
  array::FastArray array_;
  ReliabilityConfig reliability_;
  std::size_t verify_passes_;
  double now_ = 0.0;              // s, controller clock
  std::vector<CellAging> aging_;  // indexed like array_ (row-major)
  std::vector<std::vector<std::size_t>> written_levels_;  // per row; empty = never written
  double total_energy_ = 0.0;
  std::size_t words_written_ = 0;
};

}  // namespace oxmlc::mlc
