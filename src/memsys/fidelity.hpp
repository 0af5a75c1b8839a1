// Tiered fidelity: which physics backs which access of a replayed trace.
//
// A multi-GB trace cannot run every write through the calibrated device
// models, and does not need to — the scheduler's behavioral timing covers the
// bulk. What the system tier must NOT lose is the connection to the physics,
// so a deterministic sample of accesses is re-executed at higher fidelity:
//
//   tier 0 (behavioral)  every request: TimingParams service times in the
//                        CommandScheduler; no device state.
//   tier 1 (word)        every word_sample_period-th retired write, capped at
//                        word_max_samples: the word is programmed through
//                        QlcProgrammer::program_word (the SIMD CellBatch SET +
//                        terminated-RST kernel) on freshly D2D-sampled cells,
//                        then read back through the real sense path — giving
//                        physical latency/energy distributions and decode
//                        error counts for the replayed payloads.
//   tier 2 (MNA)         every mna_sample_period-th retired write, capped at
//                        mna_max_samples: the full transistor-level
//                        word-parallel write path (array::BankWritePath — SL
//                        driver, shared SL/WL ladders, one column per cell
//                        with BL parasitics and a Fig. 7a comparator at that
//                        cell's level IrefR) integrates one terminated RESET
//                        for the whole word through the hierarchical
//                        bordered-block solver (num::BlockSchurLu), stopping
//                        as soon as the last comparator fires. Hierarchy +
//                        early stop cut the per-sample word transient ~2.5x
//                        vs solving the same netlist monolithically to
//                        t_stop; that is what pays for the 10x-raised sample
//                        cap (2 -> 20 realized on the 1M-request replay).
//   witness (reliability) a 4-word MemoryController (its own sampled and
//                        aged array) carries sampled payloads
//                        through 2 rounds of a 1e6 s accelerated retention
//                        bake and scrub_all() — the physics behind the
//                        scheduler's scrub slots.
//
// Every replay runs all of them; the sample periods and caps bound their cost.
//
// Determinism contract: tiers 1 and 2 each evaluate their samples through
// one mc::run_trials on `threads` workers. Every tier-1 sample's entire
// state — device parameters, program/read randomness — derives from
// mc::trial_rng(config.seed, trace_index) alone; every tier-2 sample builds
// its own circuit and runs its bank transient on a serial solver, so it is a
// pure function of its payload. Results land in index-addressed vectors and
// are reduced in ascending sample order, so reports are bit-identical at any
// thread count (pinned by the memsys determinism tests at 1/2/8 threads).
// The witness is sequential and RNG-seeded, hence trivially deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "memsys/geometry.hpp"
#include "mlc/program.hpp"

namespace oxmlc::memsys {

struct FidelityConfig {
  std::size_t word_sample_period = 50'000;  // every Nth retired write
  std::size_t word_max_samples = 64;
  std::size_t mna_sample_period = 25'000;
  std::size_t mna_max_samples = 20;
  std::uint64_t seed = 0x4D454D53ull;  // "MEMS"
  std::size_t threads = 0;             // run_trials workers for tiers 1 and 2
};

// One sampled write: the trace position (the RNG index) and its payload.
struct WordSample {
  std::size_t trace_index = 0;
  std::uint64_t data = 0;
};

struct WordTierReport {
  std::size_t samples = 0;
  std::size_t cells = 0;
  std::size_t decode_errors = 0;   // read-back level != programmed level
  std::size_t unterminated = 0;    // RST pulses that timed out
  double mean_latency_s = 0.0;     // per-word slowest-bit termination time
  double max_latency_s = 0.0;
  double mean_energy_j = 0.0;      // per-word summed SET + RST energy
};

struct MnaTierReport {
  std::size_t samples = 0;
  std::size_t terminated = 0;
  double mean_t_terminate_s = 0.0;
  double mean_energy_j = 0.0;      // SL-driver source energy
};

struct WitnessReport {
  std::size_t words_written = 0;
  std::size_t scrub_words = 0;
  std::size_t cells_checked = 0;
  std::size_t cells_scrubbed = 0;  // drifted across a decode threshold
  std::size_t words_skipped = 0;   // never-written words seen by scrub_all
  double scrub_energy_j = 0.0;
};

class FidelityEngine {
 public:
  // Builds the calibrated QLC operating point (QlcConfig::paper_default) for
  // the geometry's bits_per_cell once; its programmer holds it, and every
  // tier samples cells from it. Sampling decisions and evaluation are
  // methods on top.
  FidelityEngine(const GeometryConfig& geometry, FidelityConfig config);

  // Sampling rule for the i-th retired write (0-based): deterministic in i.
  bool is_word_sample(std::size_t write_ordinal) const;
  bool is_mna_sample(std::size_t write_ordinal) const;

  // Tier 1: parallel over samples, (seed, trace_index)-derived randomness.
  WordTierReport run_word_tier(std::span<const WordSample> samples) const;

  // Tier 2: one full-circuit transient per sample, parallel over samples.
  MnaTierReport run_mna_tier(std::span<const WordSample> samples) const;

  // Reliability witness: program sampled payloads into a small managed array,
  // bake, scrub, repeat. Leaves its last row never written so scrub_all's
  // words_skipped accounting stays visibly exercised.
  WitnessReport run_witness(std::span<const WordSample> samples) const;

  // Per-cell level indices for a payload (bits_per_cell-wide fields).
  std::vector<std::size_t> levels_for(std::uint64_t data) const;

 private:
  GeometryConfig geometry_;
  FidelityConfig config_;
  mlc::QlcProgrammer programmer_;
};

}  // namespace oxmlc::memsys
