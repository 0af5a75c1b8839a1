// Transistor-level word-parallel RESET (Fig. 6 / §4.2 multi-bit claim).
#include <gtest/gtest.h>

#include "array/word_path.hpp"
#include "array/write_path.hpp"
#include "util/error.hpp"

namespace oxmlc::array {
namespace {

TEST(WordPath, RejectsBadConfig) {
  WordPathConfig empty;
  empty.irefs.clear();
  EXPECT_THROW(WordPath{empty}, InvalidArgumentError);
}

TEST(WordPath, ThreeBitsTerminateIndependently) {
  WordPathConfig config;
  config.irefs = {36e-6, 20e-6, 8e-6};
  WordPath path(config);
  const WordPathResult result = path.run();

  ASSERT_EQ(result.bits.size(), 3u);
  for (const auto& bit : result.bits) EXPECT_TRUE(bit.terminated);

  // Each bit lands in its own level band, ordered by reference current.
  EXPECT_LT(result.bits[0].final_resistance, result.bits[1].final_resistance);
  EXPECT_LT(result.bits[1].final_resistance, result.bits[2].final_resistance);
  EXPECT_GT(result.bits[0].final_resistance, 20e3);
  EXPECT_LT(result.bits[0].final_resistance, 60e3);
  EXPECT_GT(result.bits[2].final_resistance, 150e3);
  EXPECT_LT(result.bits[2].final_resistance, 350e3);

  // Stops are sequential (higher reference terminates earlier) and the word
  // latency equals the slowest bit.
  EXPECT_LT(result.bits[0].t_terminate, result.bits[1].t_terminate);
  EXPECT_LT(result.bits[1].t_terminate, result.bits[2].t_terminate);
  EXPECT_DOUBLE_EQ(result.word_latency, result.bits[2].t_terminate);
}

TEST(WordPath, EarlyStopDoesNotDisturbNeighbours) {
  // A bit that terminates almost immediately (already deep) must not shift
  // the final level of the slow bit sharing the SL.
  WordPathConfig lone;
  lone.irefs = {10e-6};
  WordPath lone_path(lone);
  const double r_lone = lone_path.run().bits[0].final_resistance;

  WordPathConfig pair;
  pair.irefs = {36e-6, 10e-6};
  WordPath pair_path(pair);
  const WordPathResult result = pair_path.run();
  ASSERT_TRUE(result.bits[0].terminated);
  ASSERT_TRUE(result.bits[1].terminated);
  EXPECT_NEAR(result.bits[1].final_resistance / r_lone, 1.0, 0.05);
}

TEST(WordPath, InhibitedBitSurvivesSlFall) {
  // The regression this testbench exists for: after a bit's pass gate opens,
  // the stored BL charge must not SET the cell when the shared SL falls, and
  // the inhibit clamp must not keep RESETTING it either. Run past the full
  // pulse (t_stop > width + fall) and check the early bit's level held.
  WordPathConfig config;
  config.irefs = {36e-6, 6e-6};
  config.pulse_width = 6e-6;
  config.t_stop = 6.5e-6;  // well past the SL fall
  WordPath path(config);
  const WordPathResult result = path.run();
  ASSERT_TRUE(result.bits[0].terminated);
  const double r = result.bits[0].final_resistance;
  EXPECT_GT(r, 20e3);   // not SET back to LRS (~12 kOhm)
  EXPECT_LT(r, 80e3);   // not RESET onward toward deep HRS
}

TEST(WordPath, MatchesSingleBitWritePath) {
  // One-bit word == the dedicated single-bit testbench, within the pass-gate
  // series drop.
  WordPathConfig word;
  word.irefs = {20e-6};
  WordPath word_path(word);
  const double r_word = word_path.run().bits[0].final_resistance;

  WritePathConfig single;
  single.iref = 20e-6;
  single.pulse_width = 8e-6;
  single.t_stop = 3e-6;
  WritePath single_path(single);
  const double r_single = single_path.run().final_resistance;

  EXPECT_NEAR(r_word / r_single, 1.0, 0.10);
}

}  // namespace
}  // namespace oxmlc::array
