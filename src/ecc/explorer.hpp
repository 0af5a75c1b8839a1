// Policy explorer: the UBER-vs-overhead frontier a product team ships against.
//
// Sweeps the four storage-product policy knobs — scrub interval, verify
// policy, code rate (the catalog ladder), wear-leveling rotation — at 4/5/6
// bits per cell over the physics channel (ecc/channel.hpp), and reduces each
// (policy x code) point to an uncorrectable-BER / overhead pair. The Pareto
// set per bits/cell is the frontier.
//
// Measurement design — why the UBER chain is *exactly* monotone in code
// strength: every code in a policy point scores against the SAME channel
// realization (one reference word per trial, wide enough for the largest
// codeword; code c sees the first n_c error bits), and a word counts as
// uncorrectable iff its raw error weight exceeds t — exact for these
// bounded-distance decoders. Over the fixed-block ladder none/t=1/t=2/t=3
// (shared n = 63) the failed-word set therefore shrinks as t grows,
// realization by realization, so `uber` (uncorrectable raw bit errors per
// stored bit) is monotone non-increasing by construction rather than by
// sampling luck. The real decoders still run on every word: their detected /
// miscorrected / delivered-error accounting is reported alongside
// (`delivered_uber`), where miscorrections are visible instead of hidden.
//
// Overhead accounting per point: code redundancy (n-k)/k, analytic scrub
// bank-duty from the memsys TimingParams (one t_scrub slot per word per
// period — the retention-scale periods are ~1e12 memory cycles, far beyond
// any replayable trace, so bandwidth is computed, not sampled), measured
// verify reprogram fraction, and 1/rotation start-gap write amplification. A
// small CommandScheduler probe (scrub epochs compressed onto the trace span,
// rotation passed through) reports the *scheduling* side — row-hit rate and
// p99 — of the same knobs.
//
// Determinism: trials parallelize over a flat (policy point x trial) index
// with Rng(point seed, trial) — reports are bit-identical at any thread
// count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecc/channel.hpp"
#include "memsys/geometry.hpp"
#include "obs/json.hpp"
#include "util/schema.hpp"

namespace oxmlc::ecc {

inline constexpr const char* kEccSchema = util::kEccSchema;

struct EccStudyConfig {
  std::vector<std::size_t> bits = {4, 5, 6};
  std::vector<double> scrub_periods_s = {0.0, 1e6, 3e5};  // 0 = never
  std::vector<bool> verify = {false, true};
  std::vector<std::uint64_t> rotations = {0, 2000};  // start-gap period, 0 = off
  std::size_t trials = 8;      // reference words per policy point
  std::uint64_t seed = 0xECC5EEDULL;
  std::size_t threads = 0;     // 0 = hardware concurrency
  // Read by no study: it never set the calibration depth (that is
  // QlcConfig::paper_default's curve_points). perfbench still passes it to
  // mlc::paper_mc_study as a trial count.
  std::size_t mc_trials = 64;

  // Words are read back at kReadBackHorizon, worn by the analytic start-gap
  // model (effective_cycles).
  oxram::DriftParams drift;
  reliability::ReadDisturbModel read_disturb;
  reliability::EnduranceModel endurance;

  // Timing source for the analytic scrub duty and the scheduling probe.
  memsys::GeometryConfig geometry = memsys::GeometryConfig::rram_isscc_2012();
  std::size_t probe_requests = 4096;  // 0 skips the CommandScheduler probe
};

// One code's score at one policy point.
struct CodeOutcome {
  std::string code;
  std::size_t n = 0;
  std::size_t k = 0;
  unsigned t = 0;
  bool same_block = false;   // member of the fixed-n monotone ladder
  double overhead = 0.0;     // (n - k) / k

  std::uint64_t words = 0;
  std::uint64_t errored_words = 0;       // >= 1 raw error bit in the word
  std::uint64_t failed_words = 0;        // raw weight > t (uncorrectable)
  std::uint64_t detected_words = 0;      // decoder flagged uncorrectable
  std::uint64_t miscorrected_words = 0;  // decoder claimed success, data wrong
  std::uint64_t corrected_bits = 0;      // decoder-applied flips

  std::uint64_t stored_bits = 0;              // words * n
  std::uint64_t data_bits = 0;                // words * k
  std::uint64_t raw_bit_errors = 0;           // channel flips in stored bits
  std::uint64_t uncorrectable_bit_errors = 0; // raw flips in failed words
  std::uint64_t delivered_data_bit_errors = 0;  // decoder output vs payload

  double raw_ber = 0.0;        // raw_bit_errors / stored_bits
  double uber = 0.0;           // uncorrectable_bit_errors / stored_bits
  double delivered_uber = 0.0; // delivered_data_bit_errors / data_bits
  // 1 - failed/errored words; 1.0 when the channel produced no errored words.
  double corrected_word_fraction = 1.0;
};

// Scheduling-side probe of the same knobs (CommandScheduler on a small
// synthetic trace, scrub epochs compressed onto the trace span).
struct SchedulerProbe {
  bool ran = false;
  double row_hit_rate = 0.0;
  double p99_ns = 0.0;
  std::uint64_t scrub_commands = 0;
  std::uint64_t wear_rotations = 0;
};

struct PolicyPointOutcome {
  std::size_t bits = 0;
  double scrub_period_s = 0.0;
  bool verify = false;
  std::uint64_t rotate_every_writes = 0;

  double effective_cycles = 0.0;  // wear billed to every cell of the word
  std::uint64_t cells_programmed = 0;
  std::uint64_t verify_reprograms = 0;
  std::uint64_t scrub_reprograms = 0;

  double scrub_duty = 0.0;       // analytic bank-time fraction spent scrubbing
  double verify_overhead = 0.0;  // measured reprograms per programmed cell
  double rotate_overhead = 0.0;  // start-gap write amplification, 1/rotate
  SchedulerProbe probe;

  std::vector<CodeOutcome> codes;  // catalog order (strength ladder)

  // Code + maintenance overhead for the frontier reduction.
  double total_overhead(const CodeOutcome& code) const {
    return code.overhead + scrub_duty + verify_overhead + rotate_overhead;
  }
};

// One Pareto-optimal (overhead, uber) choice for a bits/cell target.
struct FrontierPoint {
  std::size_t bits = 0;
  std::string code;
  double scrub_period_s = 0.0;
  bool verify = false;
  std::uint64_t rotate_every_writes = 0;
  double total_overhead = 0.0;
  double uber = 0.0;
  // Post-code density the paper's pitch cares about: bits * k / n.
  double usable_bits_per_cell = 0.0;
};

struct EccReport {
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::vector<std::size_t> bits;
  std::vector<double> scrub_periods_s;
  std::vector<bool> verify;
  std::vector<std::uint64_t> rotations;
  std::vector<PolicyPointOutcome> points;  // grid order: bits > scrub > verify > rotate
  std::vector<FrontierPoint> frontier;     // Pareto set, grouped by bits
};

EccReport run_ecc_study(const EccStudyConfig& config);

// True iff every fixed-block (same_block) ladder in every policy point has
// uber monotone non-increasing in catalog order — the acceptance invariant.
bool uber_monotone(const EccReport& report);

obs::Json to_json(const EccReport& report);

}  // namespace oxmlc::ecc
