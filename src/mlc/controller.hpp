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
// Reliability-aware operation (attach_reliability): with a ReliabilityEngine
// attached the controller notifies it of every program/sense event, and two
// policies become available on top of the plain word flow:
//
//  * relaxation-aware verify (VerifyPolicy, after arXiv:2301.08516): the
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
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "array/fast_array.hpp"
#include "mlc/program.hpp"
#include "reliability/engine.hpp"

namespace oxmlc::mlc {

struct WordWriteStats {
  double energy = 0.0;          // summed over the word's cells (SET + RST)
  double latency = 0.0;         // slowest bit's termination time (parallel RST)
  std::size_t unterminated = 0; // bits whose RST timed out (should be 0)
  std::size_t verify_passes = 0;  // relaxation-verify re-sense rounds executed
  std::size_t reprogrammed = 0;   // cells re-terminated by the verify loop
};

// Relaxation-aware program-verify policy (active only with an attached
// ReliabilityEngine). Energy/latency of the extra passes are charged to the
// write's WordWriteStats. Each pass waits kVerifyWait, re-senses the whole
// word and re-terminates the cells off their level, the last pass included
// (DriftingWord::relax_verify's last pass only senses).
struct VerifyPolicy {
  bool enabled = false;
  std::size_t max_passes = 2;  // re-sense rounds per write
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
  // `array` rows are words; every column is one bit line with its own
  // termination circuit (the paper's 8x8 array: words_per_row = 1).
  MemoryController(array::FastArray& array, const QlcProgrammer& programmer);

  std::size_t word_count() const { return array_.rows(); }
  std::size_t cells_per_word() const { return array_.cols(); }

  // One-time FORMING of the whole array.
  void form();

  // Attaches a reliability engine (must be bound to this controller's array).
  // From then on every program/sense is reported to the engine, and `policy`
  // governs the relaxation-aware verify loop appended to each word write.
  void attach_reliability(reliability::ReliabilityEngine* engine, VerifyPolicy policy = {});

  // Writes one word of per-cell levels (size = cells_per_word).
  WordWriteStats write_word_levels(std::size_t row, std::span<const std::size_t> levels);

  // Reads the word back as per-cell levels.
  std::vector<std::size_t> read_word_levels(std::size_t row);

  // Scrub: re-sense a previously written word against its recorded levels and
  // re-terminate any cell that drifted across a decode threshold. Words never
  // written through this controller are not re-sensed; they are counted in
  // ScrubStats::words_skipped so a scrub pass over a sparsely-written array
  // stays auditable. Out-of-range rows throw with the (row, col) + dims
  // phrasing of FastArray::at(). Requires an attached reliability engine only for the event
  // notifications — the decode itself is the ordinary read path.
  ScrubStats scrub_word(std::size_t row);
  ScrubStats scrub_all();

  // Running totals across all operations (energy accounting for EXPERIMENTS).
  double total_energy() const { return total_energy_; }
  std::size_t words_written() const { return words_written_; }

 private:
  // Re-senses the word; returns the columns whose decode disagrees with
  // `expected` (notifying the engine of the sense disturb first).
  std::vector<std::size_t> drifted_columns(std::size_t row,
                                           std::span<const std::size_t> expected);
  // Batched re-terminate of a column subset; reports events to the engine.
  std::vector<ProgramOutcome> program_columns(std::size_t row,
                                              std::span<const std::size_t> cols,
                                              std::span<const std::size_t> levels);

  array::FastArray& array_;
  const QlcProgrammer& programmer_;
  reliability::ReliabilityEngine* reliability_ = nullptr;
  VerifyPolicy verify_;
  std::vector<std::vector<std::size_t>> written_levels_;  // per row; empty = never written
  double total_energy_ = 0.0;
  std::size_t words_written_ = 0;
};

}  // namespace oxmlc::mlc
