// Error-injection bridge: device physics -> per-word level/bit errors.
//
// The codes in this module are only as honest as the channel feeding them,
// so there is deliberately NO iid-bitflip shortcut here. One trial simulates
// one stored word as an `mlc::DriftingWord`, the word the retention study
// runs, on the drift trajectory `mlc::MemoryController` keeps per cell:
// devices sampled from the D2D distributions (window pre-compressed by
// endurance wear at the cycle count the wear-leveling policy implies),
// programmed through the terminated-RESET programmer, evolved along the
// two-component log-time drift law with read-disturb stress billed per
// sense, optionally re-terminated by the relaxation-aware verify
// (kVerifyPasses passes of DriftingWord::relax_verify, each after
// mlc::kVerifyWait), scrubbed on the policy's period (at most
// kMaxScrubEvents events), and finally read back through the real reference
// ladder at kReadBackHorizon. Each verify pass and scrub event re-programs
// its slipped cells in one word-wide call. Level errors fall out as
// (target, observed) pairs; `error_bits` maps them through the Gray code to
// the bit-error stream the code catalog consumes.
//
// Determinism: everything a trial samples derives from the single `rng`
// passed in (per-cell streams are split() children), so trials keep the
// (seed, index) contract and the explorer stays bit-identical at any thread
// count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/gray.hpp"
#include "mlc/program.hpp"
#include "util/rng.hpp"

namespace oxmlc::ecc {

// Read-back time after program: the retention study's last decade.
inline constexpr double kReadBackHorizon = 1e7;  // s

// Analytic start-gap wear leveling over one hot region: a skewed write
// stream (kHotRowShare of kLifetimeWrites on one row of kWearRegionRows) is
// spread toward uniform as the rotation period shrinks. The result is the
// program/erase cycle count billed to every cell of the simulated word —
// which feeds `oxram::worn_params` *before* device sampling, the same order
// the endurance study uses.
inline constexpr double kLifetimeWrites = 1e7;  // writes absorbed by the region over life
inline constexpr std::size_t kWearRegionRows = 4096;
inline constexpr double kHotRowShare = 0.5;  // fraction of writes hitting the hot row

// rotate_every_writes == 0 disables rotation (the hot row takes its full
// share); smaller periods approach the uniform floor. One start-gap
// revolution costs rotate * kWearRegionRows writes, so the achieved leveling
// fraction is min(1, kLifetimeWrites / (rotate * kWearRegionRows)).
double effective_cycles(std::uint64_t rotate_every_writes);

// The three per-word policy knobs the explorer sweeps (code rate is the
// fourth, applied downstream of the channel).
struct ChannelPolicy {
  double scrub_period_s = 0.0;  // 0 = never scrub
  bool relax_verify = false;    // re-terminate on a relaxation-slipped verify
  std::uint64_t rotate_every_writes = 0;  // start-gap period, 0 = off
};

// The channel's verify: DriftingWord::relax_verify passes per write.
inline constexpr std::size_t kVerifyPasses = 2;
// Guard on the scrub timeline: kReadBackHorizon / scrub period must fit.
inline constexpr std::size_t kMaxScrubEvents = 128;

struct WordTrial {
  std::vector<std::size_t> target;    // per-cell programmed level index
  std::vector<std::size_t> observed;  // per-cell decoded level at the horizon
  std::uint32_t verify_reprograms = 0;
  std::uint32_t scrub_reprograms = 0;
};

// Simulates one stored word of `cells` cells end to end under `policy`. The
// operating point (allocation, cell, stack, variability) is the programmer's
// QlcConfig, so the channel samples the devices it programs; drift, read
// disturb and wear follow the default oxram::DriftParams,
// oxram::ReadDisturbModel and oxram::EnduranceModel. Target levels are
// uniform draws (a Gray-mapped random payload is level-uniform in aggregate,
// and a data-independent reference word is what lets every code in the
// catalog score against the same channel realization).
WordTrial simulate_word(const ChannelPolicy& policy, const mlc::QlcProgrammer& programmer,
                        std::size_t cells, Rng& rng);

// Gray-maps a (target, observed) level pair stream to bit errors: bit i is 1
// iff stored bit i read back flipped. Length = cells * bits_per_cell.
std::vector<std::uint8_t> error_bits(const LevelCoder& coder,
                                     std::span<const std::size_t> target,
                                     std::span<const std::size_t> observed);

}  // namespace oxmlc::ecc
