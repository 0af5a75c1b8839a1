#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ecc/bch.hpp"
#include "ecc/channel.hpp"
#include "ecc/code.hpp"
#include "ecc/explorer.hpp"
#include "ecc/gray.hpp"
#include "ecc/secded.hpp"
#include "mlc/program.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace oxmlc::ecc {
namespace {

// ---------------------------------------------------------------------------
// Gray coding
// ---------------------------------------------------------------------------

TEST(Gray, RoundTripsAllNibbles) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(gray_decode(gray_encode(v)), v);
  }
}

TEST(Gray, AdjacentValuesDifferInOneBit) {
  // The property the QLC mapping relies on: a one-level decode slip flips
  // exactly one stored bit.
  for (std::uint64_t v = 0; v + 1 < 16; ++v) {
    const std::uint64_t diff = gray_encode(v) ^ gray_encode(v + 1);
    EXPECT_EQ(std::popcount(diff), 1) << v;
  }
}

TEST(Gray, RoundTripsWideValues) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_u64();
    EXPECT_EQ(gray_decode(gray_encode(v)), v);
  }
}

// ---------------------------------------------------------------------------
// SECDED encode/decode
// ---------------------------------------------------------------------------

// The 64 payload bits of `payload`, least significant first.
std::vector<std::uint8_t> payload_bits(std::uint64_t payload) {
  std::vector<std::uint8_t> bits(64);
  for (std::size_t i = 0; i < 64; ++i) {
    bits[i] = static_cast<std::uint8_t>((payload >> i) & 1u);
  }
  return bits;
}

TEST(Secded, CleanRoundTrip) {
  const SecdedCode code;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const std::vector<std::uint8_t> data = payload_bits(rng.next_u64());
    const Code::Decoded result = code.decode(code.encode(data));
    EXPECT_FALSE(result.uncorrectable);
    EXPECT_EQ(result.corrected_bits, 0u);
    EXPECT_EQ(result.data, data);
  }
}

TEST(Secded, StoredLayoutIsPinned) {
  // Stored bits 0-63 are the payload and bits 64-71 its check byte (the
  // Hamming checks at positions 1..64 in bits 64-70, the overall parity in
  // bit 71), pinned bit for bit: every ECC report depends on this order.
  const SecdedCode code;
  const std::array<std::pair<std::uint64_t, unsigned>, 3> pins = {{
      {0xDEADBEEFCAFEF00Dull, 0xB8},
      {0x0123456789ABCDEFull, 0x9C},
      {0xFFFFFFFF00000000ull, 0xE7},
  }};
  for (const auto& [payload, check] : pins) {
    const std::vector<std::uint8_t> data = payload_bits(payload);
    const std::vector<std::uint8_t> word = code.encode(data);
    ASSERT_EQ(word.size(), 72u);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), word.begin())) << payload;
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(word[64 + b], (check >> b) & 1u) << payload << ", stored bit " << 64 + b;
    }
  }
}

TEST(Secded, CorrectsEverySingleDataBitFlip) {
  const SecdedCode code;
  Rng rng(3);
  const std::vector<std::uint8_t> data = payload_bits(rng.next_u64());
  for (unsigned bit = 0; bit < 64; ++bit) {
    std::vector<std::uint8_t> word = code.encode(data);
    word[bit] ^= 1;
    const Code::Decoded result = code.decode(word);
    EXPECT_FALSE(result.uncorrectable) << bit;
    EXPECT_EQ(result.corrected_bits, 1u) << bit;
    EXPECT_EQ(result.data, data) << bit;
  }
}

TEST(Secded, CorrectsEverySingleCheckBitFlip) {
  const SecdedCode code;
  const std::vector<std::uint8_t> data = payload_bits(0x0123456789ABCDEFull);
  for (unsigned bit = 0; bit < 8; ++bit) {
    std::vector<std::uint8_t> word = code.encode(data);
    word[64 + bit] ^= 1;
    const Code::Decoded result = code.decode(word);
    EXPECT_FALSE(result.uncorrectable) << bit;
    EXPECT_EQ(result.corrected_bits, 1u) << bit;
    EXPECT_EQ(result.data, data) << bit;
  }
}

TEST(Secded, DetectsDoubleErrorsWithoutMiscorrecting) {
  const SecdedCode code;
  Rng rng(4);
  int detected = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    std::vector<std::uint8_t> word = code.encode(payload_bits(rng.next_u64()));
    const unsigned a = static_cast<unsigned>(rng.uniform_index(64));
    unsigned b = a;
    while (b == a) b = static_cast<unsigned>(rng.uniform_index(64));
    word[a] ^= 1;
    word[b] ^= 1;
    const Code::Decoded result = code.decode(word);
    EXPECT_TRUE(result.uncorrectable) << a << "," << b;
    detected += result.uncorrectable;
  }
  EXPECT_EQ(detected, trials);
}

// ---------------------------------------------------------------------------
// Exhaustive corruption sweep over the stored codeword
// ---------------------------------------------------------------------------

TEST(SecdedSweep, CorrectsAll72SingleBitPositions) {
  // Every stored bit — payload bits, check-bit-only corruptions, and the
  // overall-parity-only corruption — must decode as one corrected bit with
  // the payload recovered.
  const SecdedCode code;
  Rng rng(6);
  const std::array<std::uint64_t, 4> payloads = {0ull, ~0ull, 0x0123456789ABCDEFull,
                                                 rng.next_u64()};
  for (const std::uint64_t payload : payloads) {
    const std::vector<std::uint8_t> data = payload_bits(payload);
    for (std::size_t i = 0; i < 72; ++i) {
      std::vector<std::uint8_t> word = code.encode(data);
      word[i] ^= 1;
      const Code::Decoded result = code.decode(word);
      EXPECT_FALSE(result.uncorrectable) << "stored bit " << i;
      EXPECT_EQ(result.corrected_bits, 1u) << "stored bit " << i;
      EXPECT_EQ(result.data, data) << "stored bit " << i;
    }
  }
}

TEST(SecdedSweep, DetectsEveryDoubleBitCombination) {
  // The full 72x72 double-bit grid (2556 pairs), including check+check,
  // check+parity and data+check mixes the sampled data-only test misses.
  const SecdedCode code;
  const std::vector<std::uint8_t> word = code.encode(payload_bits(0xDEADBEEFCAFEF00Dull));
  for (std::size_t a = 0; a < 72; ++a) {
    for (std::size_t b = a + 1; b < 72; ++b) {
      std::vector<std::uint8_t> corrupted = word;
      corrupted[a] ^= 1;
      corrupted[b] ^= 1;
      const Code::Decoded result = code.decode(corrupted);
      EXPECT_TRUE(result.uncorrectable) << a << "," << b;
    }
  }
}

TEST(SecdedSweep, OddMultiBitCorruptionWithPhantomSyndromeIsUncorrectable) {
  // Regression: flipping stored bits 68, 69 and 70 (the check bits at
  // positions 16, 32 and 64) XORs to syndrome 112 — a position that does not
  // exist in the 72-bit codeword. The decoder used to fail an internal
  // OXMLC_CHECK on this input; it must classify the word as uncorrectable
  // instead (a decoder accepts any bits).
  const SecdedCode code;
  std::vector<std::uint8_t> word = code.encode(payload_bits(0x5A5A5A5A5A5A5A5Aull));
  word[68] ^= 1;
  word[69] ^= 1;
  word[70] ^= 1;
  const Code::Decoded result = code.decode(word);
  EXPECT_TRUE(result.uncorrectable);
}

TEST(SecdedSweep, RandomMultiBitCorruptionNeverThrowsOrReadsClean) {
  // 3- and 5-bit corruptions are beyond SECDED's guarantee (odd counts can
  // miscorrect), but the decoder must always return — never throw — and can
  // never call a corrupted word clean (an odd flip count breaks parity, an
  // even one leaves a nonzero syndrome).
  const SecdedCode code;
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> word = code.encode(payload_bits(rng.next_u64()));
    const unsigned flips = rng.uniform() < 0.5 ? 3 : 5;
    std::array<std::size_t, 5> chosen{};
    for (unsigned f = 0; f < flips; ++f) {
      std::size_t i = 0;
      bool fresh = false;
      while (!fresh) {
        i = rng.uniform_index(72);
        fresh = true;
        for (unsigned g = 0; g < f; ++g) fresh = fresh && chosen[g] != i;
      }
      chosen[f] = i;
      word[i] ^= 1;
    }
    Code::Decoded result;
    ASSERT_NO_THROW(result = code.decode(word)) << trial;
    EXPECT_TRUE(result.uncorrectable || result.corrected_bits > 0) << trial;
  }
}

// ---------------------------------------------------------------------------
// end-to-end: Gray + SECDED over a QLC word with an injected level slip
// ---------------------------------------------------------------------------

TEST(SecdedQlc, OneLevelSlipInOneCellIsAlwaysCorrected) {
  // 18 QLC cells carry a 72-bit codeword as Gray-coded nibbles, its 64-bit
  // payload in the first 16; slip any of those by +/-1 level and the SECDED
  // layer must recover the payload.
  const SecdedCode code;
  const LevelCoder coder(4);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<std::uint8_t> payload = payload_bits(rng.next_u64());

    // "Program": pick the level whose Gray code equals the stored nibble, so
    // adjacent LEVELS carry nibbles that differ in exactly one bit.
    std::vector<std::size_t> levels = coder.levels_for_bits(code.encode(payload));
    // Inject a one-level slip in a random payload cell (clamped to the level
    // range).
    const unsigned victim = static_cast<unsigned>(rng.uniform_index(16));
    const bool up = rng.uniform() < 0.5;
    if (up && levels[victim] < 15) {
      ++levels[victim];
    } else if (levels[victim] > 0) {
      --levels[victim];
    } else {
      ++levels[victim];
    }

    // "Read": Gray-decode back to nibbles, reassemble, ECC-decode.
    const Code::Decoded result = code.decode(coder.bits_for_levels(levels));
    EXPECT_EQ(result.data, payload) << trial;
    EXPECT_FALSE(result.uncorrectable) << trial;
  }
}

TEST(SecdedQlc, BinaryMappingWouldNotEnjoyThatGuarantee) {
  // Sanity on the motivation: in plain binary, a one-level slip (7 -> 8)
  // flips four bits at once — beyond SECDED. Gray limits it to one.
  const std::uint64_t seven = 7, eight = 8;
  EXPECT_EQ(std::popcount(seven ^ eight), 4);
  EXPECT_EQ(std::popcount(gray_encode(seven) ^ gray_encode(eight)), 1);
}


// ---------------------------------------------------------------------------
// LevelCoder: the Gray level <-> bit packing behind every code in the module
// ---------------------------------------------------------------------------

TEST(LevelCoder, AdjacentLevelsDifferInExactlyOneBit) {
  // The property MLC ECC is built on, at every density target: slipping one
  // allocation level flips exactly one stored bit.
  for (const std::size_t bits : {std::size_t{4}, std::size_t{5}, std::size_t{6}}) {
    const LevelCoder coder(bits);
    for (std::size_t level = 0; level + 1 < coder.levels(); ++level) {
      const std::uint64_t diff =
          coder.symbol_for_level(level) ^ coder.symbol_for_level(level + 1);
      EXPECT_EQ(std::popcount(diff), 1) << bits << " bpc, level " << level;
    }
  }
}

TEST(LevelCoder, SymbolLevelRoundTripCoversEveryValue) {
  for (std::size_t bits = 1; bits <= 6; ++bits) {
    const LevelCoder coder(bits);
    for (std::uint64_t symbol = 0; symbol < coder.levels(); ++symbol) {
      EXPECT_EQ(coder.symbol_for_level(coder.level_for_symbol(symbol)), symbol);
    }
  }
}

TEST(LevelCoder, BitVectorRoundTripWithPadding) {
  // 72-bit SECDED words do not divide evenly into 5- or 6-bit cells: the pack
  // must round-trip the payload prefix and keep the pad bits zero.
  Rng rng(11);
  for (std::size_t bits = 1; bits <= 6; ++bits) {
    const LevelCoder coder(bits);
    std::vector<std::uint8_t> payload(72);
    for (auto& b : payload) b = rng.uniform() < 0.5 ? 1 : 0;
    const std::vector<std::size_t> levels = coder.levels_for_bits(payload);
    EXPECT_EQ(levels.size(), coder.cells_for_bits(payload.size()));
    const std::vector<std::uint8_t> unpacked = coder.bits_for_levels(levels);
    ASSERT_GE(unpacked.size(), payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
      EXPECT_EQ(unpacked[i], payload[i]) << bits << " bpc, bit " << i;
    }
    for (std::size_t i = payload.size(); i < unpacked.size(); ++i) {
      EXPECT_EQ(unpacked[i], 0) << bits << " bpc, pad bit " << i;
    }
  }
}

TEST(LevelCoder, CellsForBitsRoundsUp) {
  EXPECT_EQ(LevelCoder(4).cells_for_bits(72), 18u);
  EXPECT_EQ(LevelCoder(5).cells_for_bits(72), 15u);
  EXPECT_EQ(LevelCoder(6).cells_for_bits(72), 12u);
  EXPECT_EQ(LevelCoder(6).cells_for_bits(63), 11u);
}

// ---------------------------------------------------------------------------
// GF(2^m) arithmetic
// ---------------------------------------------------------------------------

TEST(GaloisField, MultiplicativeInverseHoldsForEveryElement) {
  for (unsigned m = 3; m <= 10; ++m) {
    const GaloisField field(m);
    for (unsigned a = 1; a <= field.size(); ++a) {
      EXPECT_EQ(field.mul(a, field.inv(a)), 1u) << "m=" << m << ", a=" << a;
    }
  }
}

TEST(GaloisField, AlphaPowersCycleWithPeriodN) {
  const GaloisField field(6);
  EXPECT_EQ(field.alpha_pow(0), 1u);
  EXPECT_EQ(field.alpha_pow(static_cast<int>(field.size())), 1u);
  EXPECT_EQ(field.alpha_pow(-1), field.inv(field.alpha_pow(1)));
  for (unsigned e = 0; e < field.size(); ++e) {
    EXPECT_EQ(field.log(field.alpha_pow(static_cast<int>(e))), e);
  }
}

// ---------------------------------------------------------------------------
// BCH encode/decode: exhaustive within t, honest accounting beyond it
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_bits(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = rng.uniform() < 0.5 ? 1 : 0;
  return bits;
}

TEST(Bch, CleanRoundTripAcrossTheLadder) {
  Rng rng(21);
  for (unsigned t = 1; t <= 3; ++t) {
    const BchCode code(6, t);
    EXPECT_EQ(code.spec().n, 63u);
    EXPECT_EQ(code.spec().k, 63u - 6u * t);
    for (int trial = 0; trial < 50; ++trial) {
      const std::vector<std::uint8_t> data = random_bits(rng, code.spec().k);
      const std::vector<std::uint8_t> word = code.encode(data);
      const Code::Decoded result = code.decode(word);
      EXPECT_FALSE(result.uncorrectable);
      EXPECT_EQ(result.corrected_bits, 0u);
      EXPECT_EQ(result.data, data);
    }
  }
}

// Every weight <= t pattern must decode back to the payload with exactly
// `weight` corrections. t=1 sweeps all 63 singles, t=2 all 1953 pairs, t=3
// all 39711 triples — the full guarantee, not a sample.
TEST(Bch, ExhaustiveSingleErrorsCorrectedAtT1) {
  Rng rng(22);
  const BchCode code(6, 1);
  const std::vector<std::uint8_t> data = random_bits(rng, code.spec().k);
  const std::vector<std::uint8_t> word = code.encode(data);
  for (std::size_t a = 0; a < code.spec().n; ++a) {
    std::vector<std::uint8_t> corrupted = word;
    corrupted[a] ^= 1;
    const Code::Decoded result = code.decode(corrupted);
    EXPECT_FALSE(result.uncorrectable) << a;
    EXPECT_EQ(result.corrected_bits, 1u) << a;
    EXPECT_EQ(result.data, data) << a;
  }
}

TEST(Bch, ExhaustiveDoubleErrorsCorrectedAtT2) {
  Rng rng(23);
  const BchCode code(6, 2);
  const std::size_t n = code.spec().n;
  const std::vector<std::uint8_t> data = random_bits(rng, code.spec().k);
  const std::vector<std::uint8_t> word = code.encode(data);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      std::vector<std::uint8_t> corrupted = word;
      corrupted[a] ^= 1;
      corrupted[b] ^= 1;
      const Code::Decoded result = code.decode(corrupted);
      ASSERT_FALSE(result.uncorrectable) << a << "," << b;
      ASSERT_EQ(result.corrected_bits, 2u) << a << "," << b;
      ASSERT_EQ(result.data, data) << a << "," << b;
    }
  }
}

TEST(Bch, ExhaustiveTripleErrorsCorrectedAtT3) {
  Rng rng(24);
  const BchCode code(6, 3);
  const std::size_t n = code.spec().n;
  const std::vector<std::uint8_t> data = random_bits(rng, code.spec().k);
  const std::vector<std::uint8_t> word = code.encode(data);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      std::vector<std::uint8_t> corrupted = word;
      corrupted[a] ^= 1;
      corrupted[b] ^= 1;
      for (std::size_t c = b + 1; c < n; ++c) {
        corrupted[c] ^= 1;
        const Code::Decoded result = code.decode(corrupted);
        ASSERT_FALSE(result.uncorrectable) << a << "," << b << "," << c;
        ASSERT_EQ(result.corrected_bits, 3u) << a << "," << b << "," << c;
        ASSERT_EQ(result.data, data) << a << "," << b << "," << c;
        corrupted[c] ^= 1;
      }
    }
  }
}

TEST(Bch, BeyondTIsDetectedOrMiscorrectedNeverSilent) {
  // Bounded-distance honesty: a weight > t pattern can never decode back to
  // the original codeword (that would take > t flips), so every trial must
  // land in exactly one of two buckets — flagged uncorrectable, or a
  // miscorrection to a DIFFERENT codeword with at most t claimed flips. The
  // decoder must never throw and never claim more than t corrections.
  Rng rng(25);
  for (unsigned t = 1; t <= 3; ++t) {
    const BchCode code(6, t);
    int detected = 0;
    int miscorrected = 0;
    const int trials = 400;
    for (int trial = 0; trial < trials; ++trial) {
      const std::vector<std::uint8_t> data = random_bits(rng, code.spec().k);
      std::vector<std::uint8_t> word = code.encode(data);
      const unsigned weight =
          t + 1 + static_cast<unsigned>(rng.uniform_index(6));
      std::vector<std::size_t> positions(code.spec().n);
      for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
      for (unsigned f = 0; f < weight; ++f) {
        const std::size_t j = f + rng.uniform_index(positions.size() - f);
        std::swap(positions[f], positions[j]);
        word[positions[f]] ^= 1;
      }
      Code::Decoded result;
      ASSERT_NO_THROW(result = code.decode(word)) << "t=" << t << " trial " << trial;
      EXPECT_LE(result.corrected_bits, t) << "t=" << t << " trial " << trial;
      if (result.uncorrectable) {
        ++detected;
      } else {
        EXPECT_NE(result.data, data) << "t=" << t << " trial " << trial;
        ++miscorrected;
      }
    }
    EXPECT_EQ(detected + miscorrected, trials) << "t=" << t;
    // t=1 at n=63 is the perfect Hamming code: every syndrome points at a
    // word within distance 1, so beyond-t errors ALWAYS miscorrect there.
    // The t=2/t=3 codes are not perfect and must detect some patterns.
    if (t == 1) {
      EXPECT_EQ(detected, 0);
    } else {
      EXPECT_GT(detected, 0) << "t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Code catalog: the uniform interface the explorer scores against
// ---------------------------------------------------------------------------

TEST(CodeCatalog, LadderShapesAndOverheads) {
  const std::vector<std::unique_ptr<Code>> catalog = default_catalog();
  ASSERT_EQ(catalog.size(), 5u);
  EXPECT_EQ(catalog[0]->spec().name, "none_63");
  EXPECT_EQ(catalog[1]->spec().name, "bch_63_57_t1");
  EXPECT_EQ(catalog[2]->spec().name, "bch_63_51_t2");
  EXPECT_EQ(catalog[3]->spec().name, "bch_63_45_t3");
  EXPECT_EQ(catalog[4]->spec().name, "secded_72_64");
  // The fixed-block ladder: same n, strictly increasing t, increasing
  // overhead — the structure the monotone-UBER claim rides on.
  for (std::size_t c = 0; c + 1 < 4; ++c) {
    EXPECT_EQ(catalog[c]->spec().n, 63u);
    EXPECT_TRUE(catalog[c]->spec().same_block);
    EXPECT_LT(catalog[c]->spec().t, catalog[c + 1]->spec().t);
    EXPECT_LT(catalog[c]->spec().overhead(), catalog[c + 1]->spec().overhead());
  }
  EXPECT_FALSE(catalog[4]->spec().same_block);
  Rng rng(31);
  for (const auto& code : catalog) {
    const std::vector<std::uint8_t> data = random_bits(rng, code->spec().k);
    std::vector<std::uint8_t> stored = code->encode(data);
    ASSERT_EQ(stored.size(), code->spec().n);
    Code::Decoded clean = code->decode(stored);
    EXPECT_FALSE(clean.uncorrectable) << code->spec().name;
    EXPECT_EQ(clean.data, data) << code->spec().name;
    if (code->spec().t > 0) {
      stored[rng.uniform_index(stored.size())] ^= 1;
      Code::Decoded fixed = code->decode(stored);
      EXPECT_FALSE(fixed.uncorrectable) << code->spec().name;
      EXPECT_EQ(fixed.data, data) << code->spec().name;
      EXPECT_EQ(fixed.corrected_bits, 1u) << code->spec().name;
    }
  }
}

// ---------------------------------------------------------------------------
// Channel bridge: physics levels -> Gray bit errors, wear leveling
// ---------------------------------------------------------------------------

TEST(Channel, OneLevelSlipYieldsExactlyOneErrorBit) {
  const LevelCoder coder(4);
  const std::vector<std::size_t> target = {3, 7, 0, 15, 8};
  std::vector<std::size_t> observed = target;
  observed[1] = 8;  // one-level slip 7 -> 8 (four bits apart in binary)
  const std::vector<std::uint8_t> errors = error_bits(coder, target, observed);
  ASSERT_EQ(errors.size(), target.size() * 4);
  unsigned total = 0;
  for (const std::uint8_t e : errors) total += e;
  EXPECT_EQ(total, 1u);
  // The flip must land inside cell 1's bit window.
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i] != 0) {
      EXPECT_GE(i, 4u);
      EXPECT_LT(i, 8u);
    }
  }
}

TEST(Channel, EffectiveCyclesInterpolatesHotToUniform) {
  const double hot = kHotRowShare * kLifetimeWrites;
  const double uniform = kLifetimeWrites / static_cast<double>(kWearRegionRows);
  // No rotation: the hot row absorbs its full share.
  EXPECT_DOUBLE_EQ(effective_cycles(0), hot);
  // Rotating every write revolves lifetime/(1 * 4096) ~ 2441 times >= 1 full
  // leveling pass: the billed wear collapses to the uniform floor.
  EXPECT_DOUBLE_EQ(effective_cycles(1), uniform);
  // A partial revolution interpolates between the two.
  const double partial = effective_cycles(10'000);
  EXPECT_GT(partial, uniform);
  EXPECT_LT(partial, hot);
  // More frequent rotation never increases billed wear.
  EXPECT_LE(effective_cycles(2000), effective_cycles(20'000));
}

// ---------------------------------------------------------------------------
// Policy explorer: monotone ladder, schema, thread-count determinism
// ---------------------------------------------------------------------------

EccStudyConfig tiny_study() {
  EccStudyConfig config;
  config.bits = {4};
  config.scrub_periods_s = {0.0};
  config.verify = {false, true};
  config.rotations = {0};
  config.trials = 2;
  config.mc_trials = 4;
  config.probe_requests = 256;
  config.seed = 0x7E57ULL;
  return config;
}

TEST(EccExplorer, TinyStudyHasMonotoneLadderAndSaneFrontier) {
  EccStudyConfig config = tiny_study();
  config.threads = 1;
  const EccReport report = run_ecc_study(config);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_TRUE(uber_monotone(report));
  ASSERT_FALSE(report.frontier.empty());
  // Within each bits group the frontier is overhead-sorted with strictly
  // improving uber — the definition of a Pareto scan.
  for (std::size_t i = 1; i < report.frontier.size(); ++i) {
    if (report.frontier[i].bits != report.frontier[i - 1].bits) continue;
    EXPECT_GE(report.frontier[i].total_overhead, report.frontier[i - 1].total_overhead);
    EXPECT_LT(report.frontier[i].uber, report.frontier[i - 1].uber);
  }
  // Every policy point scores the full catalog with consistent accounting.
  for (const PolicyPointOutcome& point : report.points) {
    ASSERT_EQ(point.codes.size(), 5u);
    for (const CodeOutcome& code : point.codes) {
      EXPECT_EQ(code.words, config.trials);
      EXPECT_EQ(code.stored_bits, code.words * code.n);
      EXPECT_EQ(code.data_bits, code.words * code.k);
      EXPECT_LE(code.failed_words, code.errored_words);
      EXPECT_LE(code.detected_words + code.miscorrected_words, code.words);
    }
  }
  const std::string json = to_json(report).dump(2);
  EXPECT_NE(json.find("\"schema\": \"oxmlc.ecc.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"uber_monotone\": true"), std::string::npos);
  EXPECT_NE(json.find("\"frontier\""), std::string::npos);
}

TEST(EccExplorer, DecoderAccountingIsPinned) {
  // The CLI smoke's study (oxmlc_sim --ecc --bits 4 --trials 1 --seed 99, the
  // default 12-point grid), summed over its points per code: what each
  // decoder flagged, miscorrected and flipped, and the data bits it got
  // wrong, including the received payload bits it hands back when it gives
  // up. The committed ECC reports were made with these counts; a change that
  // moves one moves them.
  EccStudyConfig config;
  config.bits = {4};
  config.trials = 1;
  config.seed = 99;
  const EccReport report = run_ecc_study(config);
  ASSERT_EQ(report.points.size(), 12u);
  struct Pin {
    const char* code;
    std::uint64_t failed, detected, miscorrected, corrected_bits, delivered;
  };
  const std::array<Pin, 5> pins = {{
      {"none_63", 10, 0, 10, 0, 133},
      {"bch_63_57_t1", 9, 0, 9, 10, 121},
      {"bch_63_51_t2", 8, 3, 5, 13, 109},
      {"bch_63_45_t3", 8, 7, 1, 6, 93},
      {"secded_72_64", 9, 7, 2, 3, 132},
  }};
  for (std::size_t c = 0; c < pins.size(); ++c) {
    Pin sum{pins[c].code, 0, 0, 0, 0, 0};
    for (const PolicyPointOutcome& point : report.points) {
      ASSERT_EQ(point.codes.size(), pins.size());
      const CodeOutcome& code = point.codes[c];
      ASSERT_EQ(code.code, pins[c].code);
      sum.failed += code.failed_words;
      sum.detected += code.detected_words;
      sum.miscorrected += code.miscorrected_words;
      sum.corrected_bits += code.corrected_bits;
      sum.delivered += code.delivered_data_bit_errors;
    }
    EXPECT_EQ(sum.failed, pins[c].failed) << pins[c].code;
    EXPECT_EQ(sum.detected, pins[c].detected) << pins[c].code;
    EXPECT_EQ(sum.miscorrected, pins[c].miscorrected) << pins[c].code;
    EXPECT_EQ(sum.corrected_bits, pins[c].corrected_bits) << pins[c].code;
    EXPECT_EQ(sum.delivered, pins[c].delivered) << pins[c].code;
  }
}

TEST(EccExplorer, McTrialsCountPolicyPointsTimesTrials) {
  // The physics phase runs every (policy point, trial) word through
  // mc::run_trials, so the runner's trial counter advances by their number.
  const EccStudyConfig config = tiny_study();
  const obs::Counter& trials = obs::registry().counter("mc.trials");
  const std::uint64_t before = trials.value();
  const EccReport report = run_ecc_study(config);
  EXPECT_EQ(report.points.size(), 2u);
  EXPECT_EQ(trials.value() - before, report.points.size() * config.trials);
}

TEST(EccExplorer, ReportIsBitIdenticalAcrossThreadCounts) {
  // The acceptance contract: the (seed, index) RNG plane makes the whole
  // report — physics, scoring, frontier — independent of the worker count.
  EccStudyConfig config = tiny_study();
  config.threads = 1;
  const std::string one = to_json(run_ecc_study(config)).dump(2);
  config.threads = 2;
  const std::string two = to_json(run_ecc_study(config)).dump(2);
  config.threads = 8;
  const std::string eight = to_json(run_ecc_study(config)).dump(2);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

}  // namespace
}  // namespace oxmlc::ecc
